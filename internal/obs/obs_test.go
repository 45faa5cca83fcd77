package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of no live sinks must be nil (tracing off)")
	}
	c := &Tape{}
	if Multi(nil, c) != Sink(c) {
		t.Fatal("Multi of one live sink must unwrap it")
	}
	c2 := &Tape{}
	m := Multi(c, nil, c2)
	m.Emit(Event{Kind: KindRunDone})
	if len(*c) != 1 || len(*c2) != 1 {
		t.Fatalf("fan-out reached %d/%d sinks, want 1/1", len(*c), len(*c2))
	}
}

func TestWallClockStampsOnlyUntimed(t *testing.T) {
	c := &Tape{}
	w := WallClock(c)
	w.Emit(Event{Kind: KindEval, Time: math.NaN()})
	w.Emit(Event{Kind: KindEval, Time: 42})
	if math.IsNaN((*c)[0].Time) || (*c)[0].Time < 0 {
		t.Fatalf("untimed event not stamped: t=%v", (*c)[0].Time)
	}
	if (*c)[1].Time != 42 {
		t.Fatalf("timed event clobbered: t=%v", (*c)[1].Time)
	}
	if WallClock(nil) != nil {
		t.Fatal("WallClock(nil) must stay nil")
	}
}

func TestSpan(t *testing.T) {
	c := &Tape{}
	sp := StartSpan(c, Event{Label: "solve", Device: 3})
	sp.Event.N = 7
	sp.End()
	e := (*c)[0]
	if e.Kind != KindSpan || e.Label != "solve" || e.Device != 3 || e.N != 7 {
		t.Fatalf("span event = %+v", e)
	}
	if e.Seconds < 0 {
		t.Fatalf("span duration %v", e.Seconds)
	}
	var nilSpan *Span
	nilSpan.End() // must not panic
	if StartSpan(nil, Event{}) != nil {
		t.Fatal("StartSpan(nil) must return nil")
	}
}

func TestJSONLSchema(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	events := []Event{
		{Kind: KindRunStart, Time: math.NaN(), Label: `Fed"Prox`, N: 30},
		{Kind: KindRoundOpen, Time: 0, Round: 0, N: 10, Tier: -1},
		{Kind: KindDispatch, Time: 1.5, Round: 2, Seq: 1, Device: 4, Version: 2, Epochs: 20, Budget: 5, BytesDown: 800, Tier: -1},
		{Kind: KindReply, Time: 2.25, Seq: 1, Device: 4, Version: 2, Staleness: 3, EpochsDone: 5, BytesUp: 800, BytesDown: 800, Seconds: 0.75, Disposition: "folded", Tier: -1},
		{Kind: KindReply, Time: math.NaN(), Seq: 2, Device: 5, Version: 2, Staleness: -1, EpochsDone: 9, BytesUp: 800, BytesDown: 800, Seconds: math.NaN(), Disposition: "drop-deadline", Tier: -1},
		{Kind: KindDrop, Time: math.NaN(), Round: 2, Device: 6, Disposition: "drop-policy"},
		{Kind: KindFold, Time: 2.25, Round: 2, Version: 3, N: 10, Tier: -1},
		{Kind: KindRoundClose, Time: 2.25, Round: 2, N: 10, Seconds: 0.75, Tier: -1},
		{Kind: KindEval, Time: 2.25, Round: 3, Loss: 0.5, Acc: 0.875},
		{Kind: KindCheckpoint, Time: math.NaN(), Round: 3},
		{Kind: KindWorkerJoin, Time: math.NaN(), N: 8},
		{Kind: KindWorkerLost, Time: 3, Device: 4},
		{Kind: KindWorkerReadmit, Time: 4, Device: 4},
		{Kind: KindDeviceDispatch, Time: math.NaN(), Round: 2, Seq: 1, Device: 4, EpochsDone: 5, BytesUp: 800, BytesDown: 800},
		{Kind: KindDeviceEval, Time: math.NaN(), Seq: 3, N: 8},
		{Kind: KindSpan, Time: 9, Label: "fednet-eval", Device: -1, Seconds: 0.01},
		{Kind: KindRunDone, Time: 2.25},
		{Kind: KindFold, Time: 2.25, Round: 2, Version: 3, N: 8, Tier: 1},
	}
	for _, e := range events {
		j.Emit(e)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(events) {
		t.Fatalf("%d lines for %d events", len(lines), len(events))
	}
	// Every line is valid JSON with the expected kind.
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		if m["kind"] != events[i].Kind.String() {
			t.Fatalf("line %d kind %v, want %v", i, m["kind"], events[i].Kind)
		}
	}
	// Spot-check the schema contract: NaN fields omitted, fixed order.
	if want := `{"kind":"reply","t":2.25,"seq":1,"device":4,"version":2,"stale":3,"done":5,"up":800,"down":800,"rel":0.75,"drop":"folded"}`; lines[3] != want {
		t.Fatalf("reply line:\n got %s\nwant %s", lines[3], want)
	}
	if strings.Contains(lines[4], `"t"`) || strings.Contains(lines[4], `"rel"`) {
		t.Fatalf("untimed reply must omit t and rel: %s", lines[4])
	}
	if strings.Contains(lines[15], `"device"`) {
		t.Fatalf("span with Device -1 must omit device: %s", lines[15])
	}
	// Untiered events omit the tier field; tiered ones carry it.
	if strings.Contains(lines[6], `"tier"`) {
		t.Fatalf("untiered fold must omit tier: %s", lines[6])
	}
	if want := `{"kind":"fold","t":2.25,"round":2,"version":3,"n":8,"tier":1}`; lines[17] != want {
		t.Fatalf("tiered fold line:\n got %s\nwant %s", lines[17], want)
	}
	// Byte stability: re-encoding the same events reproduces the bytes.
	var buf2 bytes.Buffer
	j2 := NewJSONL(&buf2)
	for _, e := range events {
		j2.Emit(e)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("identical event streams encoded to different bytes")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Emit(Event{Kind: KindRunStart, N: 30})
	r.Emit(Event{Kind: KindRoundClose, Round: 0, N: 10, Seconds: 1.5})
	r.Emit(Event{Kind: KindDispatch, BytesDown: 800})
	r.Emit(Event{Kind: KindReply, Staleness: 2, EpochsDone: 5, BytesUp: 300, Disposition: "folded"})
	r.Emit(Event{Kind: KindReply, Staleness: -1, BytesUp: 300, Disposition: "drop-deadline"})
	r.Emit(Event{Kind: KindDrop, Disposition: "drop-policy"})
	r.Emit(Event{Kind: KindSpan, Label: "worker-solve", Seconds: 0.02})
	out := r.Render()
	for _, want := range []string{
		"# TYPE fedprox_rounds_total counter",
		"fedprox_rounds_total 1",
		"fedprox_devices 30",
		`fedprox_replies_total{disposition="folded"} 1`,
		`fedprox_drops_total{reason="drop-deadline"} 1`,
		`fedprox_drops_total{reason="drop-policy"} 1`,
		"fedprox_uplink_bytes_total 600",
		"fedprox_downlink_bytes_total 800",
		`fedprox_staleness_bucket{le="2"} 1`,
		`fedprox_staleness_bucket{le="+Inf"} 1`,
		"fedprox_staleness_sum 2",
		`fedprox_span_seconds_bucket{span="worker-solve",le="0.025"} 1`,
		"# TYPE fedprox_staleness histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q\n%s", want, out)
		}
	}
	// Deterministic rendering.
	if out != r.Render() {
		t.Fatal("Render is not deterministic")
	}
}

// TestDebugHandler: the handler the binaries mount on -debug-addr serves
// the registry at /metrics as Prometheus text, exactly Render's output,
// and the runtime profiles under /debug/pprof/; without a registry it
// serves pprof only.
func TestDebugHandler(t *testing.T) {
	get := func(h http.Handler, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	r := NewRegistry()
	r.Emit(Event{Kind: KindRunStart, N: 30})
	r.Emit(Event{Kind: KindDispatch, BytesDown: 800})
	rec := get(Debug(r), "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, want 200", rec.Code)
	}
	if ct, want := rec.Header().Get("Content-Type"), "text/plain; version=0.0.4; charset=utf-8"; ct != want {
		t.Errorf("GET /metrics: Content-Type %q, want %q", ct, want)
	}
	if body := rec.Body.String(); body != r.Render() {
		t.Errorf("GET /metrics body differs from Render:\n%s", body)
	}
	if rec := get(Debug(nil), "/metrics"); rec.Code != http.StatusNotFound {
		t.Errorf("Debug(nil) GET /metrics: status %d, want 404", rec.Code)
	}
	for _, h := range []http.Handler{Debug(r), Debug(nil)} {
		if rec := get(h, "/debug/pprof/"); rec.Code != http.StatusOK {
			t.Errorf("GET /debug/pprof/: status %d, want 200", rec.Code)
		}
	}
}

// TestQuantiles pins the one quantile kernel (core's
// History.ReplyLatencyQuantiles, `fedtrace replay`, `fedbench -json` and
// `fedtrace summary` all print it). On a K = 10 round the top quantiles
// must reach toward the slowest reply: a floor-rank form,
// sorted[int(q·(n−1))], reads sorted[8] — the second-slowest — for p90
// and p99 alike, in a table whose job is straggler attribution.
func TestQuantiles(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	for _, tc := range []struct {
		sorted []float64
		want   [4]float64 // q = 0, 0.5, 0.99, 1
	}{
		{[]float64{7}, [4]float64{7, 7, 7, 7}},
		{[]float64{1, 3}, [4]float64{1, 2, 2.98, 3}},
		{ten, [4]float64{1, 5.5, 9*0.09 + 100*0.91, 100}},
	} {
		got := Quantiles(tc.sorted, 0, 0.5, 0.99, 1)
		for i, want := range tc.want {
			if math.Abs(got[i]-want) > 1e-12 {
				t.Errorf("n=%d quantile[%d] = %v, want %v", len(tc.sorted), i, got[i], want)
			}
		}
	}
	if q := Quantiles(ten, 0.9)[0]; q <= ten[8] {
		t.Errorf("p90 of a 10-reply round = %v: no more than the second-slowest reply", q)
	}
}
