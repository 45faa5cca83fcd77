package core

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"fedprox/internal/obs"
)

// TestTraceDeterministicJSONL is the tentpole's observability
// criterion: two virtual-time runs under the same seed emit
// byte-identical JSONL traces, and attaching the trace does not perturb
// the trajectory — the traced History equals the untraced one bit for
// bit.
func TestTraceDeterministicJSONL(t *testing.T) {
	for _, mode := range []AggregationMode{SyncRounds, AsyncTotal, Buffered} {
		t.Run(mode.String(), func(t *testing.T) {
			run := func(sink obs.Sink) *History {
				mdl, fed := tinyWorkload()
				cfg := vtimeAsyncConfig(mode, fed.NumDevices())
				if mode == SyncRounds {
					cfg.Async = AsyncConfig{}
				}
				if mode == Buffered {
					cfg.Async.BufferK = 3
				}
				cfg.Trace = sink
				h, err := Run(mdl, fed, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return h
			}
			var buf1, buf2 bytes.Buffer
			j1, j2 := obs.NewJSONL(&buf1), obs.NewJSONL(&buf2)
			h1, h2 := run(j1), run(j2)
			if err := j1.Err(); err != nil {
				t.Fatal(err)
			}
			if buf1.Len() == 0 {
				t.Fatal("traced run emitted no events")
			}
			if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
				t.Fatal("same seed emitted different traces")
			}
			if !historiesEqual(h1, h2) {
				t.Fatal("same seed produced different histories under tracing")
			}
			if !historiesEqual(h1, run(nil)) {
				t.Fatal("tracing perturbed the trajectory")
			}
			// The trace brackets the run and stamps the virtual clock.
			lines := strings.Split(strings.TrimRight(buf1.String(), "\n"), "\n")
			if !strings.Contains(lines[0], `"kind":"run-start"`) {
				t.Errorf("first event is not run-start: %s", lines[0])
			}
			if last := lines[len(lines)-1]; !strings.Contains(last, `"kind":"run-done"`) ||
				!strings.Contains(last, `"t":`) {
				t.Errorf("last event is not a clock-stamped run-done: %s", last)
			}
			// The async schedules have no round-open: they emit
			// round-close at recording milestones only.
			wants := []string{`"kind":"dispatch"`, `"kind":"reply"`,
				`"kind":"fold"`, `"kind":"eval"`, `"kind":"round-close"`}
			if mode == SyncRounds {
				wants = append(wants, `"kind":"round-open"`)
			}
			for _, want := range wants {
				if !strings.Contains(buf1.String(), want) {
					t.Errorf("trace has no %s event", want)
				}
			}
		})
	}
}

// TestTraceClocklessRunUntimed: a run without a virtual clock emits
// untimed events (no "t" key), the contract that lets deployments stamp
// wall time via obs.WallClock.
func TestTraceClocklessRunUntimed(t *testing.T) {
	mdl, fed := tinyWorkload()
	cfg := FedProx(4, 5, 3, 0.01, 1)
	cfg.EvalEvery = 2
	var buf bytes.Buffer
	cfg.Trace = obs.NewJSONL(&buf)
	if _, err := Run(mdl, fed, cfg); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("traced run emitted no events")
	}
	if strings.Contains(buf.String(), `"t":`) {
		t.Fatalf("clockless run emitted timed events:\n%s", buf.String())
	}
}

// discardSink drops every event: a sink that costs only the interface call.
type discardSink struct{}

func (discardSink) Emit(obs.Event) {}

// BenchmarkTraceOverhead quantifies the tracing spine's cost on a full
// (miniature) run: "off" is the nil-sink fast path every untraced run
// takes — the number that must stay indistinguishable from the
// pre-observability baseline — against a no-op sink that costs the
// interface call and a live JSONL encoder.
func BenchmarkTraceOverhead(b *testing.B) {
	for _, bc := range []struct {
		name string
		sink obs.Sink
	}{
		{"off", nil},
		{"discard-sink", discardSink{}},
		{"jsonl", obs.NewJSONL(io.Discard)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			mdl, fed := tinyWorkload()
			cfg := FedProx(4, 5, 3, 0.01, 1)
			cfg.EvalEvery = 4
			cfg.Trace = bc.sink
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(mdl, fed, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
