// Package tracefile reads the JSONL run traces internal/obs writes
// (the `-trace out.jsonl` files of the cmds) back into obs.Events, and
// is the one reader that analyzes them: Summarize and Diff fold a run's
// events into rows through one tally, and FirstDifference is the event
// comparator every equivalence check (diff, replay verification) uses.
//
// The decoder is not a generic JSON parser: it walks the same per-kind
// field table the encoder walks (obs.Fields), expecting exactly the
// keys that table lists, in that order, with only the table's omission
// rules allowed. That strictness is the point — decode→re-encode is
// byte-identical for every kind (the round-trip test holds both sides
// to the shared table), so a trace that decodes is known to be exactly
// what the writer emits and `fedtrace diff` can compare streams
// event-by-event.
//
// The decoder is streaming and allocation-conscious: lines are scanned
// in place from a bufio.Reader, numbers are parsed without
// intermediate strings, and the small set of recurring string values
// (dispositions, run labels) is interned so a million-line trace
// allocates a handful of strings, not a million.
//
// Malformed input never panics: every failure is a typed sentinel
// (ErrSyntax, ErrUnknownKind, ErrUnknownField, ErrBadNumber,
// ErrTruncated, ErrOutOfOrder) wrapped in a LineError carrying the
// 1-based line number, so `errors.Is` can classify and messages point
// at the offending line.
package tracefile

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"fedprox/internal/obs"
)

// Sentinel error classes; match with errors.Is. Every error ReadAll
// or Summarize returns for malformed input wraps one of these inside a
// *LineError.
var (
	// ErrSyntax marks a line that is not a well-formed trace object
	// (bad framing, missing required field, trailing bytes).
	ErrSyntax = errors.New("malformed trace line")
	// ErrUnknownKind marks a "kind" value the schema does not list.
	ErrUnknownKind = errors.New("unknown event kind")
	// ErrUnknownField marks a key the line's kind does not list (or a
	// known key out of schema order).
	ErrUnknownField = errors.New("unexpected field")
	// ErrBadNumber marks a numeric value that is not a plain decimal
	// int or float (or overflows).
	ErrBadNumber = errors.New("malformed number")
	// ErrTruncated marks a final line cut off before its newline — the
	// writer terminates every line, so a missing one means a partial
	// write.
	ErrTruncated = errors.New("truncated line")
	// ErrOutOfOrder marks a round-open whose round does not increase
	// within its run at its tier — each coordinator emits its rounds
	// strictly ascending, so a violation means spliced or reordered
	// input. A hierarchical run interleaves several coordinators into
	// one trace; their tier stamps keep the per-node streams separable.
	ErrOutOfOrder = errors.New("out-of-order round")
)

// LineError locates a decode failure: Line is 1-based, Err wraps one
// of the sentinel classes above.
type LineError struct {
	Line int
	Err  error
}

func (e *LineError) Error() string { return fmt.Sprintf("trace line %d: %v", e.Line, e.Err) }

// Unwrap exposes the wrapped sentinel to errors.Is/As.
func (e *LineError) Unwrap() error { return e.Err }

// decoder streams events out of one trace. Not safe for concurrent
// use.
type decoder struct {
	r    *bufio.Reader
	line int    // lines consumed so far (1-based for errors)
	long []byte // spill buffer for lines longer than the read buffer
	err  error  // latched terminal state (io.EOF or a *LineError)

	// strs interns recurring string values ("folded", "drop-deadline",
	// run labels) so decoding N lines allocates O(distinct), not O(N).
	strs map[string]string

	// lastRound enforces round-open monotonicity per run and tier;
	// reset by run-start. The root (tier 0) and untiered coordinators
	// (tier -1) open each round exactly once, so their rounds must
	// strictly increase; sibling edges share a tier and each opens the
	// same root round, so tiers above 0 only require non-decreasing.
	lastRound map[int]int
}

// newDecoder returns a decoder reading r. Wrap files in the decoder
// directly — it buffers internally.
func newDecoder(r io.Reader) *decoder {
	return &decoder{
		r:         bufio.NewReaderSize(r, 64<<10),
		strs:      make(map[string]string),
		lastRound: make(map[int]int),
	}
}

// Next returns the next event. At clean end of input it returns io.EOF;
// any other error is a *LineError and latches (subsequent calls return
// it again).
func (d *decoder) Next() (obs.Event, error) {
	if d.err != nil {
		return obs.Event{}, d.err
	}
	raw, err := d.readLine()
	if err != nil {
		d.err = err
		return obs.Event{}, err
	}
	e, perr := d.parse(raw)
	if perr != nil {
		d.err = &LineError{Line: d.line, Err: perr}
		return obs.Event{}, d.err
	}
	switch e.Kind {
	case obs.KindRunStart:
		clear(d.lastRound)
	case obs.KindRoundOpen:
		last, seen := d.lastRound[e.Tier]
		repeatOK := e.Tier > 0 // sibling edges each open the root's round
		if seen && (e.Round < last || (e.Round == last && !repeatOK)) {
			d.err = &LineError{Line: d.line, Err: fmt.Errorf("%w: round-open %d after round %d", ErrOutOfOrder, e.Round, last)}
			return obs.Event{}, d.err
		}
		d.lastRound[e.Tier] = e.Round
	}
	return e, nil
}

// readLine returns the next line without its trailing newline, valid
// until the following readLine call. Lines longer than the reader's
// buffer spill into d.long; EOF mid-line is ErrTruncated.
func (d *decoder) readLine() ([]byte, error) {
	d.long = d.long[:0]
	for {
		chunk, err := d.r.ReadSlice('\n')
		switch {
		case err == nil:
			d.line++
			if len(d.long) > 0 {
				d.long = append(d.long, chunk...)
				chunk = d.long
			}
			return chunk[:len(chunk)-1], nil
		case errors.Is(err, bufio.ErrBufferFull):
			d.long = append(d.long, chunk...)
		case errors.Is(err, io.EOF):
			if len(chunk) > 0 || len(d.long) > 0 {
				d.line++
				return nil, &LineError{Line: d.line, Err: ErrTruncated}
			}
			return nil, io.EOF
		default:
			return nil, err
		}
	}
}

// parse decodes one line against the shared schema table.
func (d *decoder) parse(b []byte) (obs.Event, error) {
	var e obs.Event
	rest, ok := cut(b, `{"kind":"`)
	if !ok {
		return e, fmt.Errorf(`%w: line must start with {"kind":"`, ErrSyntax)
	}
	name, rest, ok := scanTo(rest, '"')
	if !ok {
		return e, fmt.Errorf("%w: unterminated kind", ErrSyntax)
	}
	kind, ok := obs.KindFromName(name)
	if !ok {
		return e, fmt.Errorf("%w: %q", ErrUnknownKind, name)
	}
	e = obs.NewEvent(kind)
	fields := obs.Fields(kind)
	idx := 0

	for {
		if len(rest) == 0 {
			return e, fmt.Errorf("%w: unterminated object", ErrSyntax)
		}
		if rest[0] == '}' {
			if len(rest) != 1 {
				return e, fmt.Errorf("%w: trailing bytes after }", ErrSyntax)
			}
			// Any fields left in the schema must be omittable.
			for ; idx < len(fields); idx++ {
				if !omittable(fields[idx]) {
					return e, fmt.Errorf("%w: missing field %q", ErrSyntax, fields[idx].Key)
				}
			}
			return e, nil
		}
		var key []byte
		key, rest, ok = scanKey(rest)
		if !ok {
			return e, fmt.Errorf("%w: malformed field key", ErrSyntax)
		}
		// Advance through the schema to the field this key names,
		// stepping only over omittable fields.
		for idx < len(fields) && !keyIs(key, fields[idx].Key) {
			if !omittable(fields[idx]) {
				return e, fmt.Errorf("%w: missing field %q", ErrSyntax, fields[idx].Key)
			}
			idx++
		}
		if idx == len(fields) {
			return e, fmt.Errorf("%w: %q in %s event", ErrUnknownField, key, kind)
		}
		f := fields[idx]
		idx++

		switch f.Type {
		case obs.FieldInt:
			var tok []byte
			tok, rest = scanValue(rest)
			v, err := parseInt(tok)
			if err != nil {
				return e, fmt.Errorf("%w: field %q value %q", err, f.Key, tok)
			}
			if v < math.MinInt || v > math.MaxInt {
				return e, fmt.Errorf("%w: field %q value %q overflows int", ErrBadNumber, f.Key, tok)
			}
			f.SetInt(&e, int(v))
		case obs.FieldInt64:
			var tok []byte
			tok, rest = scanValue(rest)
			v, err := parseInt(tok)
			if err != nil {
				return e, fmt.Errorf("%w: field %q value %q", err, f.Key, tok)
			}
			f.SetInt64(&e, v)
		case obs.FieldFloat:
			var tok []byte
			tok, rest = scanValue(rest)
			v, err := parseFloat(tok)
			if err != nil {
				return e, fmt.Errorf("%w: field %q value %q", err, f.Key, tok)
			}
			f.SetFloat(&e, v)
		case obs.FieldString:
			var s string
			var err error
			s, rest, err = d.scanString(rest)
			if err != nil {
				return e, fmt.Errorf("%w: field %q: %v", ErrSyntax, f.Key, err)
			}
			f.SetStr(&e, s)
		}
	}
}

func omittable(f obs.FieldSpec) bool { return f.OmitNaN || f.OmitNeg }

// cut strips prefix from b, reporting whether it was present.
func cut(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return nil, false
	}
	return b[len(prefix):], true
}

// scanTo splits b at the first occurrence of c.
func scanTo(b []byte, c byte) (head, tail []byte, ok bool) {
	for i := 0; i < len(b); i++ {
		if b[i] == c {
			return b[:i], b[i+1:], true
		}
	}
	return nil, nil, false
}

// scanKey consumes `,"key":` and returns the key.
func scanKey(b []byte) (key, rest []byte, ok bool) {
	if len(b) < 2 || b[0] != ',' || b[1] != '"' {
		return nil, nil, false
	}
	key, rest, ok = scanTo(b[2:], '"')
	if !ok || len(rest) == 0 || rest[0] != ':' {
		return nil, nil, false
	}
	return key, rest[1:], true
}

func keyIs(key []byte, want string) bool { return string(key) == want }

// scanValue consumes an unquoted value token (number or null), up to
// the next ',' or '}'.
func scanValue(b []byte) (tok, rest []byte) {
	for i := 0; i < len(b); i++ {
		if b[i] == ',' || b[i] == '}' {
			return b[:i], b[i:]
		}
	}
	return b, nil
}

// scanString consumes a quoted string value, interning the result.
func (d *decoder) scanString(b []byte) (string, []byte, error) {
	if len(b) == 0 || b[0] != '"' {
		return "", nil, errors.New("value is not a string")
	}
	b = b[1:]
	// Fast path: no escapes.
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '\\':
			return d.unquoteSlow(b)
		case '"':
			return d.intern(b[:i]), b[i+1:], nil
		}
	}
	return "", nil, errors.New("unterminated string")
}

// unquoteSlow handles strings with escapes (rare: only labels and
// dispositions containing quotes or non-printable characters). It
// finds the escape-aware closing quote, then delegates to
// strconv.Unquote — the exact inverse of the strconv quoting
// AppendEvent uses, including its \xNN and \uNNNN forms — so every
// string the encoder can write decodes.
func (d *decoder) unquoteSlow(b []byte) (string, []byte, error) {
	for i := 0; i < len(b); {
		switch b[i] {
		case '\\':
			i += 2
		case '"':
			s, err := strconv.Unquote(`"` + string(b[:i]) + `"`)
			if err != nil {
				return "", nil, errors.New("bad escape")
			}
			return s, b[i+1:], nil
		default:
			i++
		}
	}
	return "", nil, errors.New("unterminated string")
}

// intern returns the canonical string for b, allocating only on first
// sight. The map lookup with a converted key is recognized by the
// compiler and does not allocate.
func (d *decoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// parseInt parses a plain decimal integer (optional leading minus, no
// exponents, no leading zeros enforced) with overflow checking.
func parseInt(b []byte) (int64, error) {
	neg := false
	i := 0
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	if i >= len(b) {
		return 0, ErrBadNumber
	}
	var v uint64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, ErrBadNumber
		}
		if v > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, ErrBadNumber
		}
		v = v*10 + uint64(c-'0')
	}
	if neg {
		if v > math.MaxInt64+1 {
			return 0, ErrBadNumber
		}
		return -int64(v), nil
	}
	if v > math.MaxInt64 {
		return 0, ErrBadNumber
	}
	return int64(v), nil
}

// parseFloat parses a JSON number token or null (the encoder writes
// non-omitted NaN/Inf as null). The charset is pre-checked so
// strconv's laxer forms ("Inf", "NaN", hex floats) are rejected.
func parseFloat(b []byte) (float64, error) {
	if string(b) == "null" {
		return math.NaN(), nil
	}
	if len(b) == 0 {
		return 0, ErrBadNumber
	}
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
		case c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E':
		default:
			return 0, ErrBadNumber
		}
	}
	// The conversion does not escape, so the compiler keeps it off the
	// heap for the short tokens numbers are.
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return 0, ErrBadNumber
	}
	return v, nil
}

// ReadAll decodes every event in r. On error it returns the events
// decoded so far alongside the *LineError.
func ReadAll(r io.Reader) (evs []obs.Event, err error) {
	err = each(r, func(e obs.Event) { evs = append(evs, e) })
	return evs, err
}

// each decodes r, handing fn every event in order; the first malformed
// line is its error.
func each(r io.Reader, fn func(obs.Event)) error {
	d := newDecoder(r)
	for {
		e, err := d.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		fn(e)
	}
}

// Runs splits a decoded event stream at its run-start events — a trace
// file written by a multi-experiment command (fedbench -exp a,b)
// concatenates one run per case. Events before the first run-start (if
// any) form the first slice.
func Runs(events []obs.Event) [][]obs.Event {
	var runs [][]obs.Event
	start := 0
	for i, e := range events {
		if e.Kind == obs.KindRunStart && i > start {
			runs = append(runs, events[start:i])
			start = i
		}
	}
	if start < len(events) {
		runs = append(runs, events[start:])
	}
	return runs
}
