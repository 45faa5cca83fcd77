package experiments

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"fedprox/internal/core"
)

// A verdict is what a claim's predicate concludes from a run.
type verdict string

const (
	holds         verdict = "holds"
	notReproduced verdict = "not reproduced"
	// reported marks a row that prints a measurement the surrogates
	// cannot be held to.
	reported verdict = "reported"
)

func judge(ok bool) verdict {
	if ok {
		return holds
	}
	return notReproduced
}

// A claim is one checkable sentence of the paper (or one acceptance bound
// of an extension), the experiment that tests it and a predicate with a
// stated margin. The margin comes from the sentence, never from the
// measured value, and no row is re-seeded or resized to turn its verdict:
// want pins the verdict the code reaches, so a change that turns one
// fails the row by name.
type claim struct {
	id, cite, sentence string
	exp                string
	opts               Options
	check              func(t *testing.T, r *Result) (evidence string, v verdict)
	want               verdict
}

// fast returns Fast() with the overrides a row names.
func fast(overrides ...func(*Options)) Options {
	o := Fast()
	for _, f := range overrides {
		f(&o)
	}
	return o
}

// syntheticOnly restricts the five-dataset figures to Synthetic(1,1): the
// full set takes 43 s at Fast().
func syntheticOnly(o *Options) { o.Datasets = []string{"synthetic"} }

// rounds100 is the horizon of the convergence rows: at Fast()'s 30
// rounds no method has left its transient on the ladder.
func rounds100(o *Options) { o.Rounds = 100 }

var claims = []claim{{
	id: "a-fig1", cite: "Fig. 1",
	sentence: "allowing for variable amounts of work to be performed (FedProx, mu=0) helps convergence over dropping stragglers (FedAvg) at 50% and 90% stragglers",
	exp:      "figure1", opts: fast(syntheticOnly),
	check: partialBeatsDrop, want: holds,
}, {
	id: "a-fig9", cite: "Fig. 9",
	sentence: "with E=1, aggregating partial work still beats dropping stragglers at 50% and 90% stragglers",
	exp:      "figure9", opts: fast(syntheticOnly),
	check: partialBeatsDrop, want: holds,
}, {
	id: "b", cite: "Figs. 2, 6",
	sentence: "increasing heterogeneity leads to worse convergence, but setting mu > 0 can help to combat this: on each non-IID set mu=1 ends with lower training loss than mu=0",
	exp:      "figure6", opts: fast(rounds100),
	check: func(t *testing.T, r *Result) (string, verdict) {
		return proxLower(t, r, func(p core.Point) float64 { return p.TrainLoss })
	},
	want: holds,
}, {
	id: "c", cite: "Fig. 2",
	sentence: "the dissimilarity (variance of local gradients) is consistent with training loss: on each non-IID set mu=1 ends with lower gradient variance than mu=0",
	exp:      "figure6", opts: fast(rounds100),
	check: func(t *testing.T, r *Result) (string, verdict) {
		return proxLower(t, r, func(p core.Point) float64 { return p.GradVar })
	},
	want: holds,
}, {
	id: "c-fig8", cite: "Fig. 8",
	sentence: "the dissimilarity metric captures data heterogeneity and is consistent with training loss: FedProx(best mu) ends with lower gradient variance than mu=0",
	exp:      "figure8", opts: fast(syntheticOnly, rounds100),
	check: func(t *testing.T, r *Result) (string, verdict) {
		sec := section(t, r, "Synthetic(1,1)")
		avg, prox := final(t, sec, "FedProx(mu=0)"), final(t, sec, "FedProx(mu=1)")
		return fmt.Sprintf("Synthetic(1,1) grad-var mu=0 %.4g, mu=1 %.4g", avg.GradVar, prox.GradVar),
			judge(prox.GradVar < avg.GradVar)
	},
	want: holds,
}, {
	id: "d", cite: "Figs. 3, 11",
	sentence: "increasing mu by 0.1 when the loss rises and decreasing it by 0.1 after 5 falls works well from an adversarial start: adaptive mu ends nearer the best fixed mu than the worst",
	exp:      "figure3", opts: fast(rounds100),
	check: func(t *testing.T, r *Result) (string, verdict) {
		var ev []string
		ok := true
		for _, sec := range r.Sections {
			var fixed []float64
			adaptive := math.NaN()
			for _, h := range sec.Runs {
				if strings.Contains(h.Label, "adaptive") {
					adaptive = h.Final().TrainLoss
				} else {
					fixed = append(fixed, h.Final().TrainLoss)
				}
			}
			if len(fixed) != 2 || math.IsNaN(adaptive) {
				t.Fatalf("%s: want two fixed-mu runs and one adaptive run", sec.Name)
			}
			best, worst := math.Min(fixed[0], fixed[1]), math.Max(fixed[0], fixed[1])
			ok = ok && adaptive <= (best+worst)/2
			ev = append(ev, fmt.Sprintf("%s: adaptive %.4f, fixed best %.4f worst %.4f (%+.1f%% of best)",
				sec.Name, adaptive, best, worst, 100*(adaptive/best-1)))
		}
		return strings.Join(ev, "; "), judge(ok)
	},
	want: holds,
}, {
	id: "e-devices", cite: "Table 1",
	sentence: "MNIST has 1000 devices, FEMNIST 200, Shakespeare 143 and Sent140 772",
	exp:      "table1", opts: fast(),
	check: func(t *testing.T, r *Result) (string, verdict) {
		return table1Rows(t, r, func(got, paper table1Row) (string, bool) {
			return fmt.Sprintf("%s %d/%d", got.name, got.devices, paper.devices), got.devices == paper.devices
		})
	},
	want: holds,
}, {
	id: "e-samples", cite: "Table 1",
	sentence: "MNIST has 69 035 samples, FEMNIST 18 345, Shakespeare 517 106 and Sent140 40 783: a surrogate draws its sizes from a power law, so a total within a tenth of the paper's matches",
	exp:      "table1", opts: fast(),
	check: func(t *testing.T, r *Result) (string, verdict) {
		return table1Rows(t, r, func(got, paper table1Row) (string, bool) {
			return fmt.Sprintf("%s %d/%d (%+.1f%%)", got.name, got.samples, paper.samples,
					100*(float64(got.samples)/float64(paper.samples)-1)),
				math.Abs(float64(got.samples-paper.samples)) <= 0.1*float64(paper.samples)
		})
	},
	want: notReproduced,
}, {
	id: "f", cite: "Fig. 4, App. B",
	sentence: "FedDane performs worse than FedProx on non-IID data: on each non-IID set FedDane ends above FedProx at the same mu",
	exp:      "figure4", opts: fast(),
	check: func(t *testing.T, r *Result) (string, verdict) {
		var ev []string
		ok := true
		for _, set := range nonIID {
			sec := section(t, r, set+" mu sweep")
			for _, mu := range []string{"0", "1"} {
				prox := final(t, sec, "FedProx(mu="+mu+")").TrainLoss
				dane := final(t, sec, "FedDane(mu="+mu+",c=10)").TrainLoss
				ok = ok && dane > prox
				ev = append(ev, fmt.Sprintf("%s mu=%s FedDane %.4f vs FedProx %.4f", set, mu, dane, prox))
			}
		}
		return strings.Join(ev, "; "), judge(ok)
	},
	want: notReproduced,
}, {
	id: "g-gamma", cite: "Def. 2",
	sentence: "gamma measures how inexactly a device solves its subproblem: more local epochs give a smaller gamma",
	exp:      "ext-gamma", opts: fast(),
	check: func(t *testing.T, r *Result) (string, verdict) {
		runs := r.Sections[0].Runs
		var ev []string
		ok := true
		for i, h := range runs {
			g := h.Final().MeanGamma
			ev = append(ev, fmt.Sprintf("%s gamma %.4f", h.Label, g))
			ok = ok && (i == 0 || g < runs[i-1].Final().MeanGamma)
		}
		if len(runs) != 3 {
			t.Fatalf("ext-gamma has %d runs, want E=1, 5, 20", len(runs))
		}
		return strings.Join(ev, ", "), judge(ok)
	},
	want: holds,
}, {
	id: "g-rho", cite: "Thm. 4, Remark 5",
	sentence: "rho > 0 requires gamma*B < 1 and B/sqrt(K) < 1: at the measured B and L, rho > 0 exactly where those conditions hold",
	exp:      "ext-theory", opts: fast(),
	check: func(t *testing.T, r *Result) (string, verdict) {
		var ev []string
		ok := true
		for _, sec := range r.Sections {
			var b, l, rho float64
			var remark5 bool
			if len(sec.Notes) != 1 {
				t.Fatalf("%s: %d notes, want the measurement", sec.Name, len(sec.Notes))
			}
			if _, err := fmt.Sscanf(sec.Notes[0], "measured B=%g L=%g -> rho=%g remark5=%t", &b, &l, &rho, &remark5); err != nil {
				t.Fatalf("%s: %q: %v", sec.Name, sec.Notes[0], err)
			}
			ok = ok && (rho > 0) == remark5
			ev = append(ev, fmt.Sprintf("%s rho %.4f remark5=%v", sec.Name, rho, remark5))
		}
		return strings.Join(ev, "; "), judge(ok)
	},
	want: holds,
}, {
	id: "h-fig7", cite: "Fig. 7",
	sentence: "FedProx improves absolute test accuracy by 22% on average in highly heterogeneous settings (90% stragglers); a surrogate cannot carry the number, so it is printed, not judged",
	exp:      "figure7", opts: fast(syntheticOnly),
	check: func(t *testing.T, r *Result) (string, verdict) {
		if len(r.Notes) == 0 || !strings.HasPrefix(r.Notes[len(r.Notes)-1], "mean absolute accuracy improvement") {
			t.Fatalf("figure7 lacks its improvement note: %q", r.Notes)
		}
		return r.Notes[len(r.Notes)-1], reported
	},
	want: reported,
}, {
	id: "h-fig10", cite: "Fig. 10",
	sentence: "with E=1, partial work keeps test accuracy up under stragglers; printed, not judged",
	exp:      "figure10", opts: fast(syntheticOnly),
	check: func(t *testing.T, r *Result) (string, verdict) {
		var ev []string
		for _, frac := range []string{"50%", "90%"} {
			sec := section(t, r, "Synthetic(1,1) "+frac+" stragglers")
			ev = append(ev, fmt.Sprintf("%s: FedAvg accuracy %.4f, FedProx(mu=0) %.4f",
				frac, final(t, sec, "FedAvg").TestAcc, final(t, sec, "FedProx(mu=0)").TestAcc))
		}
		return strings.Join(ev, "; "), reported
	},
	want: reported,
}, {
	id: "i-hier-ingress", cite: "ext-hier",
	sentence: "folding at the edge shrinks the root's ingress at least 4x at fan-out 32 against flat, on the raw wire and on qsgd links",
	exp:      "ext-hier", opts: fast(),
	check: func(t *testing.T, r *Result) (string, verdict) {
		return hierFlatVs32(t, r, func(flat, deep core.Point) (string, bool) {
			ratio := float64(flat.Cost.UplinkBytes) / float64(deep.Cost.UplinkBytes)
			return fmt.Sprintf("%.1fx", ratio), ratio >= 4
		})
	},
	want: holds,
}, {
	id: "i-hier-loss", cite: "ext-hier",
	sentence: "at fan-out 32 the final loss is within 5% of flat's",
	exp:      "ext-hier", opts: fast(),
	check: func(t *testing.T, r *Result) (string, verdict) {
		return hierFlatVs32(t, r, func(flat, deep core.Point) (string, bool) {
			return fmt.Sprintf("%.4f vs %.4f", deep.TrainLoss, flat.TrainLoss), deep.TrainLoss <= 1.05*flat.TrainLoss
		})
	},
	want: holds,
}, {
	id: "i-hier-learns", cite: "ext-hier",
	sentence: "ext-hier's flat run learns (final loss < round-0 loss), so that the loss bound above can fail",
	exp:      "ext-hier", opts: fast(),
	check: func(t *testing.T, r *Result) (string, verdict) {
		var ev []string
		ok := true
		for _, sec := range r.Sections {
			h := history(t, &sec, "flat ")
			first, last := h.Points[0], h.Final()
			ok = ok && last.TrainLoss < first.TrainLoss
			ev = append(ev, fmt.Sprintf("%s: round 0 %.4f, round %d %.4f, accuracy %.4f",
				sec.Name, first.TrainLoss, last.Round, last.TrainLoss, last.TestAcc))
		}
		return strings.Join(ev, "; "), judge(ok)
	},
	want: notReproduced,
}, {
	id: "i-precision-drift", cite: "ext-precision",
	sentence: "every f32 run ends within 2% of its same-seed f64 partner's final loss",
	exp:      "ext-precision", opts: fast(),
	check: func(t *testing.T, r *Result) (string, verdict) {
		var ev []string
		ok := true
		runs := r.Sections[0].Runs
		for i := 0; i+1 < len(runs); i += 2 {
			l64, l32 := runs[i].Final().TrainLoss, runs[i+1].Final().TrainLoss
			drift := math.Abs(l32-l64) / l64
			ok = ok && drift <= 0.02
			ev = append(ev, fmt.Sprintf("%s %.2f%%", strings.SplitN(runs[i].Label, " f64 ", 2)[0], 100*drift))
		}
		return strings.Join(ev, ", "), judge(ok)
	},
	want: holds,
}, {
	id: "i-precision-shrink", cite: "ext-precision",
	sentence: "on the raw wire the f32 run moves at least 1.9x fewer uplink bytes than f64 (4-byte coordinates)",
	exp:      "ext-precision", opts: fast(),
	check: func(t *testing.T, r *Result) (string, verdict) {
		sec := &r.Sections[0]
		up64 := history(t, sec, "raw wire f64 ").Final().Cost.UplinkBytes
		up32 := history(t, sec, "raw wire f32 ").Final().Cost.UplinkBytes
		shrink := float64(up64) / float64(up32)
		return fmt.Sprintf("%d B vs %d B, %.2fx", up64, up32, shrink), judge(up32 > 0 && shrink >= 1.9)
	},
	want: holds,
}, {
	id: "i-partialwork", cite: "ext-partialwork",
	sentence: "a device-side compute budget spends fewer device-epochs than full work, in process and on the virtual clock",
	exp:      "ext-partialwork", opts: fast(),
	check: func(t *testing.T, r *Result) (string, verdict) {
		sec := &r.Sections[0]
		full := history(t, sec, "full-work ").Final().Cost.DeviceEpochs
		vfull := history(t, sec, "vtime-full ").Final().Cost.DeviceEpochs
		var ev []string
		ok := true
		for _, h := range sec.Runs {
			e, limit := h.Final().Cost.DeviceEpochs, full
			switch {
			case strings.HasPrefix(h.Label, "vtime-budget "):
				limit = vfull
			case !strings.HasPrefix(h.Label, "budget "):
				continue
			}
			ok = ok && e < limit
			ev = append(ev, fmt.Sprintf("%s %d/%d", h.Label, e, limit))
		}
		return strings.Join(ev, ", "), judge(ok)
	},
	want: holds,
}}

// nonIID names the three heterogeneous sets of the synthetic ladder.
var nonIID = []string{"Synthetic(0,0)", "Synthetic(0.5,0.5)", "Synthetic(1,1)"}

// TestClaims runs every row and logs
//
//	claim (id) [cite]: sentence — evidence — verdict
//
// failing a row whose verdict is not its want. The -v log is the
// reproduction's report:
//
//	go test -v -run TestClaims ./internal/experiments
func TestClaims(t *testing.T) {
	for _, c := range claims {
		t.Run(c.id, c.run)
	}
}

func (c claim) run(t *testing.T) {
	evidence, v := c.check(t, result(t, c.exp, c.opts))
	t.Logf("claim (%s) [%s]: %s — %s — %s", c.id, c.cite, c.sentence, evidence, v)
	if v != c.want {
		t.Errorf("claim (%s): verdict %q, want %q", c.id, v, c.want)
	}
}

// testRuns is the one run set of the test binary: TestClaims and
// TestBaseline read their results from it. Every claim row's experiment
// is planned into it before the first executes, so a run that several
// rows show executes once, tracking what any of them asks for; an
// experiment no row names is planned when first asked for. A Result is
// shared: readers must not modify it.
var testRuns struct {
	sync.Mutex
	set     *runSet
	results map[string]*Result // by experiment id and options
	decls   map[string]*Result
}

func result(t *testing.T, id string, o Options) *Result {
	t.Helper()
	testRuns.Lock()
	defer testRuns.Unlock()
	key := func(id string, o Options) string { return fmt.Sprintf("%s %#v", id, o) }
	plan := func(id string, o Options) {
		if _, ok := testRuns.decls[key(id, o)]; !ok {
			decl, err := testRuns.set.plan(id, o)
			if err != nil {
				t.Fatal(err)
			}
			testRuns.decls[key(id, o)] = decl
		}
	}
	if testRuns.set == nil {
		testRuns.set, testRuns.results, testRuns.decls = newRunSet(), map[string]*Result{}, map[string]*Result{}
		for _, c := range claims {
			plan(c.exp, c.opts)
		}
	}
	if res, ok := testRuns.results[key(id, o)]; ok {
		return res
	}
	plan(id, o)
	res, err := testRuns.set.result(testRuns.decls[key(id, o)])
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	testRuns.results[key(id, o)] = res
	return res
}

// section returns r's section named name.
func section(t *testing.T, r *Result, name string) *Section {
	t.Helper()
	for i := range r.Sections {
		if r.Sections[i].Name == name {
			return &r.Sections[i]
		}
	}
	t.Fatalf("%s has no section %q", r.ID, name)
	return nil
}

// history returns sec's run whose label starts with prefix.
func history(t *testing.T, sec *Section, prefix string) *core.History {
	t.Helper()
	for _, h := range sec.Runs {
		if strings.HasPrefix(h.Label, prefix) {
			return h
		}
	}
	t.Fatalf("%s has no run %q", sec.Name, prefix)
	return nil
}

// final returns the last point of sec's run labelled label.
func final(t *testing.T, sec *Section, label string) core.Point {
	t.Helper()
	h := history(t, sec, label)
	if h.Label != label {
		t.Fatalf("%s: run %q, want %q", sec.Name, h.Label, label)
	}
	return h.Final()
}

// partialBeatsDrop: at 50% and 90% stragglers FedProx(mu=0) ends with a
// lower training loss than FedAvg.
func partialBeatsDrop(t *testing.T, r *Result) (string, verdict) {
	var ev []string
	ok := true
	for _, frac := range []string{"50%", "90%"} {
		sec := section(t, r, "Synthetic(1,1) "+frac+" stragglers")
		avg, prox := final(t, sec, "FedAvg").TrainLoss, final(t, sec, "FedProx(mu=0)").TrainLoss
		ok = ok && prox < avg
		ev = append(ev, fmt.Sprintf("%s: FedAvg %.4f, FedProx(mu=0) %.4f", frac, avg, prox))
	}
	return strings.Join(ev, "; "), judge(ok)
}

// proxLower: on each non-IID set, metric of mu=1's last point is below
// mu=0's.
func proxLower(t *testing.T, r *Result, metric func(core.Point) float64) (string, verdict) {
	var ev []string
	ok := true
	for _, set := range nonIID {
		sec := section(t, r, set)
		m0, m1 := metric(final(t, sec, "FedProx(mu=0)")), metric(final(t, sec, "FedProx(mu=1)"))
		ok = ok && m1 < m0
		ev = append(ev, fmt.Sprintf("%s mu=0 %.4g, mu=1 %.4g", set, m0, m1))
	}
	return strings.Join(ev, "; "), judge(ok)
}

// hierFlatVs32 applies cmp to the flat and the fan-out 32 run's last
// points in each of ext-hier's sections; the row holds where every
// section does.
func hierFlatVs32(t *testing.T, r *Result, cmp func(flat, deep core.Point) (string, bool)) (string, verdict) {
	var ev []string
	ok := true
	for i := range r.Sections {
		sec := &r.Sections[i]
		got, pass := cmp(history(t, sec, "flat ").Final(), history(t, sec, "f=32 ").Final())
		ok = ok && pass
		ev = append(ev, sec.Name+": "+got)
	}
	return strings.Join(ev, "; "), judge(ok)
}

// table1Row is one dataset's row of the paper's Table 1.
type table1Row struct {
	name             string
	devices, samples int
}

var paperTable1 = []table1Row{
	{"MNIST", 1000, 69035},
	{"FEMNIST", 200, 18345},
	{"Shakespeare", 143, 517106},
	{"Sent140", 772, 40783},
}

// table1Rows compares table1's generated statistics with the paper's,
// row by row; the claim holds where every row matches.
func table1Rows(t *testing.T, r *Result, match func(got, paper table1Row) (string, bool)) (string, verdict) {
	notes := r.Sections[0].Notes
	if len(notes) != len(paperTable1) {
		t.Fatalf("table1 reports %d datasets, want %d", len(notes), len(paperTable1))
	}
	var ev []string
	ok := true
	for i, paper := range paperTable1 {
		var got table1Row
		if _, err := fmt.Sscanf(notes[i], "%s devices=%d samples=%d", &got.name, &got.devices, &got.samples); err != nil || got.name != paper.name {
			t.Fatalf("table1 row %d = %q (%v), want %s", i, notes[i], err, paper.name)
		}
		got1, pass := match(got, paper)
		ok = ok && pass
		ev = append(ev, got1)
	}
	return strings.Join(ev, "; "), judge(ok)
}
