package tracefile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"fedprox/internal/obs"
)

// fullEvent builds an event of kind k with a distinctive value in
// every schema field, derived from the field's position so no two
// fields collide.
func fullEvent(k obs.Kind) obs.Event {
	e := obs.NewEvent(k)
	for i, f := range obs.Fields(k) {
		switch f.Type {
		case obs.FieldInt:
			f.SetInt(&e, 3+2*i)
		case obs.FieldInt64:
			f.SetInt64(&e, int64(1)<<40+int64(i))
		case obs.FieldFloat:
			f.SetFloat(&e, 0.25+1.5*float64(i))
		case obs.FieldString:
			f.SetStr(&e, fmt.Sprintf("val-%d", i))
		}
	}
	return e
}

// TestRoundTripEveryKind is the schema contract: for every kind, in
// both the all-fields-present and the all-omittable-fields-omitted
// form, encode→decode→re-encode reproduces the bytes exactly. Both
// sides walk the shared table in obs/schema.go, so a drift in either
// fails here.
func TestRoundTripEveryKind(t *testing.T) {
	for k := obs.KindRunStart; k <= obs.KindRunDone; k++ {
		for _, tc := range []struct {
			name string
			ev   obs.Event
		}{
			{"full", fullEvent(k)},
			{"omitted", obs.NewEvent(k)}, // NaN floats / -1 OmitNeg ints stay omitted
		} {
			line := obs.AppendEvent(nil, tc.ev)
			got, err := ReadAll(bytes.NewReader(line))
			if err != nil {
				t.Fatalf("%v/%s: decode: %v\n%s", k, tc.name, err, line)
			}
			if len(got) != 1 {
				t.Fatalf("%v/%s: %d events", k, tc.name, len(got))
			}
			re := obs.AppendEvent(nil, got[0])
			if !bytes.Equal(line, re) {
				t.Errorf("%v/%s: round trip changed bytes\n in %s out %s", k, tc.name, line, re)
			}
		}
	}
}

// Non-omitted NaN floats encode as null and must survive the trip.
func TestRoundTripNullFloats(t *testing.T) {
	e := obs.NewEvent(obs.KindEval)
	e.Time = 1.5
	e.Round = 2
	e.Loss = math.NaN()
	e.Acc = 0.75
	line := obs.AppendEvent(nil, e)
	if !bytes.Contains(line, []byte(`"loss":null`)) {
		t.Fatalf("NaN loss must render null: %s", line)
	}
	got, err := ReadAll(bytes.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got[0].Loss) || got[0].Acc != 0.75 {
		t.Fatalf("decoded %+v", got[0])
	}
	if re := obs.AppendEvent(nil, got[0]); !bytes.Equal(line, re) {
		t.Fatalf("null round trip changed bytes\n in %s out %s", line, re)
	}
}

// Escaped strings (quotes, control chars) take the slow path and must
// still round-trip byte-identically.
func TestRoundTripEscapedStrings(t *testing.T) {
	for _, label := range []string{`Fed"Prox`, "a\\b", "tab\there", "nl\nthere", "µ-label"} {
		e := obs.NewEvent(obs.KindRunStart)
		e.Label = label
		e.N = 5
		line := obs.AppendEvent(nil, e)
		got, err := ReadAll(bytes.NewReader(line))
		if err != nil {
			t.Fatalf("%q: %v\n%s", label, err, line)
		}
		if got[0].Label != label {
			t.Fatalf("label %q decoded as %q", label, got[0].Label)
		}
		if re := obs.AppendEvent(nil, got[0]); !bytes.Equal(line, re) {
			t.Fatalf("%q round trip changed bytes\n in %s out %s", label, line, re)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  error
		line  int
	}{
		{"empty object", "{}\n", ErrSyntax, 1},
		{"no kind", `{"round":1}` + "\n", ErrSyntax, 1},
		{"unknown kind", `{"kind":"frobnicate","round":1}` + "\n", ErrUnknownKind, 1},
		{"unknown field", `{"kind":"checkpoint","round":1,"extra":2}` + "\n", ErrUnknownField, 1},
		{"field out of order", `{"kind":"round-open","n":3,"round":1}` + "\n", ErrSyntax, 1},
		{"missing required field", `{"kind":"round-open","round":1}` + "\n", ErrSyntax, 1},
		{"bad int", `{"kind":"checkpoint","round":1x}` + "\n", ErrBadNumber, 1},
		{"int overflow", `{"kind":"checkpoint","round":99999999999999999999}` + "\n", ErrBadNumber, 1},
		{"bad float", `{"kind":"run-done","t":1..5}` + "\n", ErrBadNumber, 1},
		{"float inf spelled out", `{"kind":"run-done","t":Infinity}` + "\n", ErrBadNumber, 1},
		{"truncated line", `{"kind":"checkpoint","round":1}`, ErrTruncated, 1},
		{"truncated mid-line", `{"kind":"checkpoint","round":1}` + "\n" + `{"kind":"chec`, ErrTruncated, 2},
		{"unterminated string", `{"kind":"run-start","label":"oops,"n":1}` + "\n", ErrSyntax, 1},
		{"trailing bytes", `{"kind":"run-done"} ` + "\n", ErrSyntax, 1},
		{"out-of-order round", `{"kind":"round-open","round":3,"n":1}` + "\n" + `{"kind":"round-open","round":2,"n":1}` + "\n", ErrOutOfOrder, 2},
		{"repeated round", `{"kind":"round-open","round":3,"n":1}` + "\n" + `{"kind":"round-open","round":3,"n":1}` + "\n", ErrOutOfOrder, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadAll(strings.NewReader(tc.input))
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			var le *LineError
			if !errors.As(err, &le) {
				t.Fatalf("error %v carries no line number", err)
			}
			if le.Line != tc.line {
				t.Fatalf("line = %d, want %d", le.Line, tc.line)
			}
		})
	}
}

// A run-start resets round monotonicity: two concatenated runs each
// open at round 0.
func TestRunStartResetsRoundOrder(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJSONL(&buf)
	for run := 0; run < 2; run++ {
		e := obs.NewEvent(obs.KindRunStart)
		e.Label = "case"
		e.N = 2
		j.Emit(e)
		for r := 0; r < 3; r++ {
			ro := obs.NewEvent(obs.KindRoundOpen)
			ro.Round = r
			ro.N = 2
			j.Emit(ro)
		}
	}
	evs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	runs := Runs(evs)
	if len(runs) != 2 || len(runs[0]) != 4 || len(runs[1]) != 4 {
		t.Fatalf("Runs split: %d runs", len(runs))
	}
}

func TestDecoderErrorLatches(t *testing.T) {
	d := newDecoder(strings.NewReader("garbage\n"))
	_, err1 := d.Next()
	_, err2 := d.Next()
	if err1 == nil || err1 != err2 {
		t.Fatalf("error did not latch: %v then %v", err1, err2)
	}
}

// Long lines spill past the internal buffer and still decode.
func TestLongLine(t *testing.T) {
	e := obs.NewEvent(obs.KindRunStart)
	e.Label = strings.Repeat("x", 200<<10)
	e.N = 1
	line := obs.AppendEvent(nil, e)
	got, err := ReadAll(bytes.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Label != e.Label {
		t.Fatal("long label mangled")
	}
}

// Decoding a long stream of identical-shape lines should not allocate
// per line beyond the event slice: strings intern, numbers parse in
// place.
func TestDecodeInternsStrings(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJSONL(&buf)
	for i := 0; i < 1000; i++ {
		e := obs.NewEvent(obs.KindReply)
		e.Time = float64(i)
		e.Seq = i
		e.Device = i % 7
		e.Disposition = "folded"
		j.Emit(e)
	}
	d := newDecoder(&buf)
	for {
		e, err := d.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if e.Disposition != "folded" {
			t.Fatalf("disposition %q", e.Disposition)
		}
	}
	if len(d.strs) != 1 {
		t.Fatalf("interned %d strings, want 1", len(d.strs))
	}
	if allocs := testing.AllocsPerRun(10, func() {
		line := obs.AppendEvent(nil, obs.Event{Kind: obs.KindRunDone, Time: 1.5})
		d := newDecoder(bytes.NewReader(line))
		if _, err := d.Next(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 12 {
		// The decoder itself (reader buffer, intern map) dominates; the
		// bound just catches accidental per-field allocation blowups.
		t.Fatalf("decode allocations per fresh decoder: %v", allocs)
	}
}

// FuzzDecoder: whatever the bytes, the decoder answers events or a typed,
// located error. The committed seeds (testdata/fuzz/FuzzDecoder) start the
// fuzzer at the real grammar: every kind's full and all-omitted encoding,
// then the documented failure shapes.
func FuzzDecoder(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		d := newDecoder(bytes.NewReader(in))
		for {
			e, err := d.Next()
			if err != nil {
				if errors.Is(err, io.EOF) {
					return
				}
				// Any failure must be a typed, located error.
				var le *LineError
				if !errors.As(err, &le) || le.Line <= 0 {
					t.Fatalf("untyped decode error: %v", err)
				}
				if !errors.Is(err, ErrSyntax) && !errors.Is(err, ErrUnknownKind) &&
					!errors.Is(err, ErrUnknownField) && !errors.Is(err, ErrBadNumber) &&
					!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrOutOfOrder) {
					t.Fatalf("unclassified decode error: %v", err)
				}
				return
			}
			// Whatever decodes must re-encode to a line that decodes to
			// the same event (idempotent canonical form).
			line := obs.AppendEvent(nil, e)
			again, err := ReadAll(bytes.NewReader(line))
			if err != nil || len(again) != 1 {
				t.Fatalf("re-decode of %s failed: %v", line, err)
			}
			if re := obs.AppendEvent(nil, again[0]); !bytes.Equal(line, re) {
				t.Fatalf("canonical form unstable: %s vs %s", line, re)
			}
		}
	})
}
