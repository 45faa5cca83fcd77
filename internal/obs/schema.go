package obs

import "math"

// This file is the single source of truth for the JSONL trace schema:
// one table mapping each Kind to its wire fields, in output order. The
// encoder (AppendEvent) and the decoder (internal/obs/tracefile) both
// iterate this table, so the two sides cannot drift — adding a field
// here changes writer and reader together, and the tracefile round-trip
// test (decode→re-encode byte-identical for every kind) holds them to
// it.

// FieldType is the wire representation of one event field.
type FieldType uint8

const (
	// FieldInt is an int rendered in decimal.
	FieldInt FieldType = iota
	// FieldInt64 is an int64 rendered in decimal (byte counters).
	FieldInt64
	// FieldFloat is a float64 rendered via strconv 'g'/-1 (shortest
	// round-trip form); non-omitted NaN/Inf render as null.
	FieldFloat
	// FieldString is a strconv-quoted string.
	FieldString
)

// fieldID names the Event struct field a spec reads and writes. It is
// private — external readers go through the FieldSpec accessors — so
// the schema table stays the only coupling point.
type fieldID uint8

const (
	fTime fieldID = iota
	fLabel
	fRound
	fSeq
	fDevice
	fVersion
	fStaleness
	fEpochs
	fBudget
	fEpochsDone
	fBytesDown
	fBytesUp
	fDisposition
	fLoss
	fAcc
	fSeconds
	fN
	fTier
)

// FieldSpec describes one wire field of a kind: its JSON key, wire
// type, omission rule, and (privately) which Event field it maps to.
// Use the typed accessors to move values between an Event and the wire.
type FieldSpec struct {
	// Key is the JSON object key ("round", "rel", "down", ...).
	Key string
	// Type selects which accessor pair is valid for this field.
	Type FieldType
	// OmitNaN marks a float field that is absent from the line when
	// NaN (clockless runs omit "t", untimed replies omit "rel").
	OmitNaN bool
	// OmitNeg marks an int field that is absent when negative (a
	// span's "device").
	OmitNeg bool

	id fieldID
}

// intField, int64Field, floatField and strField map the spec's id to its
// Event field, one switch per wire type: adding an Event field is one
// case here and one row in the table below. A spec of another type maps
// to a scratch value, so a mismatched read is zero and a mismatched
// write is lost.
func (f FieldSpec) intField(e *Event) *int {
	switch f.id {
	case fRound:
		return &e.Round
	case fSeq:
		return &e.Seq
	case fDevice:
		return &e.Device
	case fVersion:
		return &e.Version
	case fStaleness:
		return &e.Staleness
	case fEpochs:
		return &e.Epochs
	case fBudget:
		return &e.Budget
	case fEpochsDone:
		return &e.EpochsDone
	case fN:
		return &e.N
	case fTier:
		return &e.Tier
	}
	return new(int)
}

func (f FieldSpec) int64Field(e *Event) *int64 {
	switch f.id {
	case fBytesDown:
		return &e.BytesDown
	case fBytesUp:
		return &e.BytesUp
	}
	return new(int64)
}

func (f FieldSpec) floatField(e *Event) *float64 {
	switch f.id {
	case fTime:
		return &e.Time
	case fLoss:
		return &e.Loss
	case fAcc:
		return &e.Acc
	case fSeconds:
		return &e.Seconds
	}
	return new(float64)
}

func (f FieldSpec) strField(e *Event) *string {
	switch f.id {
	case fLabel:
		return &e.Label
	case fDisposition:
		return &e.Disposition
	}
	return new(string)
}

// Int reads the spec's field from e. Valid only for FieldInt specs.
func (f FieldSpec) Int(e *Event) int { return *f.intField(e) }

// SetInt writes the spec's field on e. Valid only for FieldInt specs.
func (f FieldSpec) SetInt(e *Event, v int) { *f.intField(e) = v }

// Int64 reads the spec's field from e. Valid only for FieldInt64 specs.
func (f FieldSpec) Int64(e *Event) int64 { return *f.int64Field(e) }

// SetInt64 writes the spec's field on e. Valid only for FieldInt64
// specs.
func (f FieldSpec) SetInt64(e *Event, v int64) { *f.int64Field(e) = v }

// Float reads the spec's field from e. Valid only for FieldFloat specs.
func (f FieldSpec) Float(e *Event) float64 { return *f.floatField(e) }

// SetFloat writes the spec's field on e. Valid only for FieldFloat
// specs.
func (f FieldSpec) SetFloat(e *Event, v float64) { *f.floatField(e) = v }

// Str reads the spec's field from e. Valid only for FieldString specs.
func (f FieldSpec) Str(e *Event) string { return *f.strField(e) }

// SetStr writes the spec's field on e. Valid only for FieldString specs.
func (f FieldSpec) SetStr(e *Event, v string) { *f.strField(e) = v }

// Spec constructors — terse on purpose so the table below reads as the
// schema itself.
func fi(key string, id fieldID) FieldSpec { return FieldSpec{Key: key, Type: FieldInt, id: id} }
func f64(key string, id fieldID) FieldSpec {
	return FieldSpec{Key: key, Type: FieldInt64, id: id}
}
func ff(key string, id fieldID) FieldSpec { return FieldSpec{Key: key, Type: FieldFloat, id: id} }
func fnan(key string, id fieldID) FieldSpec {
	return FieldSpec{Key: key, Type: FieldFloat, OmitNaN: true, id: id}
}
func fneg(key string, id fieldID) FieldSpec {
	return FieldSpec{Key: key, Type: FieldInt, OmitNeg: true, id: id}
}
func fs(key string, id fieldID) FieldSpec {
	return FieldSpec{Key: key, Type: FieldString, id: id}
}

// tf is the "t" timestamp: first field of every kind, omitted on
// clockless runs.
var tf = fnan("t", fTime)

// kindFields is the trace schema, indexed by Kind. Field order is wire
// order; every listed field is always present except those whose
// omission rule fires.
var kindFields = [KindRunDone + 1][]FieldSpec{
	KindRunStart:  {tf, fs("label", fLabel), fi("n", fN)},
	KindRoundOpen: {tf, fi("round", fRound), fi("n", fN), fneg("tier", fTier)},
	KindDispatch: {tf, fi("round", fRound), fi("seq", fSeq), fi("device", fDevice),
		fi("version", fVersion), fi("epochs", fEpochs), fi("budget", fBudget), f64("down", fBytesDown),
		fneg("tier", fTier)},
	KindReply: {tf, fi("seq", fSeq), fi("device", fDevice), fi("version", fVersion),
		fi("stale", fStaleness), fi("done", fEpochsDone), f64("up", fBytesUp),
		f64("down", fBytesDown), fnan("rel", fSeconds), fs("drop", fDisposition),
		fneg("tier", fTier)},
	KindDrop:          {tf, fi("round", fRound), fi("device", fDevice), fs("drop", fDisposition)},
	KindFold:          {tf, fi("round", fRound), fi("version", fVersion), fi("n", fN), fneg("tier", fTier)},
	KindRoundClose:    {tf, fi("round", fRound), fi("n", fN), fnan("secs", fSeconds), fneg("tier", fTier)},
	KindEval:          {tf, fi("round", fRound), ff("loss", fLoss), ff("acc", fAcc)},
	KindCheckpoint:    {tf, fi("round", fRound)},
	KindWorkerJoin:    {tf, fi("n", fN)},
	KindWorkerLost:    {tf, fi("device", fDevice)},
	KindWorkerReadmit: {tf, fi("device", fDevice)},
	KindDeviceDispatch: {tf, fi("round", fRound), fi("seq", fSeq), fi("device", fDevice),
		fi("done", fEpochsDone), f64("up", fBytesUp), f64("down", fBytesDown)},
	KindDeviceEval: {tf, fi("seq", fSeq), fi("n", fN)},
	KindSpan:       {tf, fs("label", fLabel), fneg("device", fDevice), fnan("secs", fSeconds)},
	KindRunDone:    {tf},
}

// Fields returns k's wire fields in output order, or nil for an
// invalid kind. The returned slice is shared — do not mutate it.
func Fields(k Kind) []FieldSpec {
	if int(k) < len(kindFields) {
		return kindFields[k]
	}
	return nil
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, int(KindRunDone))
	for k := KindRunStart; k <= KindRunDone; k++ {
		m[k.String()] = k
	}
	return m
}()

// KindFromName resolves a wire name ("dispatch") to its Kind. The
// []byte signature lets decoders look up without allocating (the
// compiler elides the conversion for map access).
func KindFromName(name []byte) (Kind, bool) {
	k, ok := kindByName[string(name)]
	return k, ok
}

// NewEvent returns an Event of kind k with every omittable field preset
// to its omitted sentinel (NaN for OmitNaN floats including Time, -1
// for OmitNeg ints), so decoders and emitters that never touch those
// fields produce the omitted form rather than a spurious zero.
func NewEvent(k Kind) Event {
	e := Event{Kind: k}
	for _, f := range Fields(k) {
		switch {
		case f.Type == FieldFloat && f.OmitNaN:
			f.SetFloat(&e, math.NaN())
		case f.Type == FieldInt && f.OmitNeg:
			f.SetInt(&e, -1)
		}
	}
	return e
}
