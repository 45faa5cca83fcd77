package experiments

import (
	"fmt"
	"math"
	"testing"

	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/model"
	"fedprox/internal/tensor"
)

// TestTrackingMovesNoBit holds the property a run set's sharing rests on:
// TrackDissimilarity and TrackGamma only measure. On each of the five
// standard workloads, at f64 and — where the model has a float32
// gradient — at f32, a run with either switched on ends at the same
// FinalParams as the run without, through the same points in every
// column but the one it tracks.
func TestTrackingMovesNoBit(t *testing.T) {
	o := micro()
	for _, key := range []string{"synthetic", "mnist", "femnist", "shakespeare", "sent140"} {
		w, err := o.NamedWorkload(key)
		if err != nil {
			t.Fatal(err)
		}
		fed := data.Generate(w.Fleet)
		widths := []tensor.Precision{tensor.F64}
		if _, ok := w.Model.(model.Model32); ok {
			widths = append(widths, tensor.F32)
		}
		for _, width := range widths {
			base := o.base(w)
			base.StragglerFraction = 0.5
			base.Precision = width
			base = fedprox(base, w.BestMu)
			plain := mustRun(t, w, fed, base)
			for _, track := range []struct {
				name string
				on   func(*core.Config)
			}{
				{"TrackDissimilarity", func(c *core.Config) { c.TrackDissimilarity = true }},
				{"TrackGamma", func(c *core.Config) { c.TrackGamma = true }},
			} {
				cfg := base
				track.on(&cfg)
				tracked := mustRun(t, w, fed, cfg)
				name := fmt.Sprintf("%s %s %s", key, width, track.name)
				if len(tracked.Points) != len(plain.Points) {
					t.Fatalf("%s: %d points, want %d", name, len(tracked.Points), len(plain.Points))
				}
				for i, p := range tracked.Points {
					if got, want := untracked(p), untracked(plain.Points[i]); got != want {
						t.Errorf("%s: point %d\n got  %s\n want %s", name, i, got, want)
					}
				}
				for i, v := range tracked.FinalParams {
					if math.Float64bits(v) != math.Float64bits(plain.FinalParams[i]) {
						t.Fatalf("%s: FinalParams[%d] = %v, want %v", name, i, v, plain.FinalParams[i])
					}
				}
			}
		}
	}
}

func mustRun(t *testing.T, w Workload, fed *data.Federated, cfg core.Config) *core.History {
	t.Helper()
	h, err := core.Run(w.Model, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// untracked renders every column of p but the tracked ones; %v prints a
// float's shortest round-tripping form, so equal strings are equal bits.
func untracked(p core.Point) string {
	p.GradVar, p.B, p.MeanGamma = 0, 0, 0
	return fmt.Sprintf("%+v", p)
}

// TestRunSetSharesRuns: experiments planned into one set execute a
// shared configuration once, tracking what any of them asks for; each
// view prints only the columns it asked for, and no workload stays built
// once its last run has executed.
func TestRunSetSharesRuns(t *testing.T) {
	s := newRunSet()
	var decls []*Result
	for _, id := range []string{"figure1", "figure7", "figure8"} {
		decl, err := s.plan(id, micro())
		if err != nil {
			t.Fatal(err)
		}
		decls = append(decls, decl)
	}
	// figure7 is figure1's grid, 3 sections x 3 methods on one dataset;
	// figure8's two runs are the grid's 0% FedProx runs, tracked.
	tracked := 0
	for _, x := range s.runs {
		if x.cfg.TrackDissimilarity {
			tracked++
		}
	}
	if len(s.runs) != 9 || tracked != 2 {
		t.Fatalf("the set holds %d distinct runs, %d tracked; want 9, 2", len(s.runs), tracked)
	}
	var res []*Result
	for _, decl := range decls {
		r, err := s.result(decl)
		if err != nil {
			t.Fatal(err)
		}
		res = append(res, r)
	}
	if len(s.built) != 0 {
		t.Errorf("%d workloads still built after every run executed", len(s.built))
	}
	fig1, fig8 := res[0].Sections[0].Runs[2], res[2].Sections[0].Runs[1]
	if fig1.Label != fig8.Label || !math.IsNaN(fig1.Final().GradVar) || math.IsNaN(fig8.Final().GradVar) {
		t.Errorf("figure1's view of the shared run: %q grad-var %v; figure8's: %q grad-var %v",
			fig1.Label, fig1.Final().GradVar, fig8.Label, fig8.Final().GradVar)
	}
}
