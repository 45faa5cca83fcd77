// Package experiments maps every table and figure in the paper's
// evaluation (Section 5 and Appendices B-C) to a runnable experiment.
//
// Each experiment declares the runs of every method in the paper's
// comparison under the shared-environment protocol (same seed ⇒ same
// device selection, stragglers, batch order, and initial model), and
// returns the same series the paper plots: per-round training loss, test
// accuracy, and — where the figure shows it — the gradient-variance
// dissimilarity. A figure is a view over runs: experiments run together
// (see Together) share one run set, in which each distinct configuration
// runs once, so Figure 7 prints Figure 1's runs and Figure 8 tracks the
// dissimilarity of Figure 1's no-straggler runs.
//
// Use Lookup to look experiments up by their paper artifact id
// ("figure1" … "figure12", "table1") and Run to execute one.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"fedprox/internal/core"
)

// Section is one panel of a figure: one dataset (and, for the straggler
// grids, one heterogeneity level) with all compared methods.
type Section struct {
	// Name identifies the panel, e.g. "Synthetic(1,1) 90% stragglers".
	Name string
	// Runs are the compared trajectories, in the paper's legend order.
	Runs []*core.History
	// Seconds, when non-nil, is the measured wall-clock of each run,
	// parallel to Runs.
	Seconds []float64
	// Notes carries derived scalars (e.g. the Figure 7 improvement
	// accounting) rendered after the table.
	Notes []string
	// requests declares Runs: a run set fills Runs with their views.
	requests []request
}

// Result is the output of one experiment.
type Result struct {
	// ID is the registry key, e.g. "figure1".
	ID string
	// Title restates which paper artifact this regenerates.
	Title string
	// Sections are the panels in paper order.
	Sections []Section
	// Notes carries experiment-level commentary.
	Notes []string
	// finish, when set, completes a declared result: it derives notes
	// from the sections' runs, or adds what a run set cannot key.
	finish func(res *Result) error
}

// Summary renders the result as aligned text: per section, one row per
// method with final loss, best accuracy, and divergence markers — the
// quantities needed to check the figure's qualitative shape.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, sec := range r.Sections {
		fmt.Fprintf(&b, "\n-- %s --\n", sec.Name)
		fmt.Fprintf(&b, "%-40s %11s %11s %9s %9s %10s %9s\n",
			"method", "first-loss", "final-loss", "best-acc", "final-acc", "grad-var", "diverged")
		for _, h := range sec.Runs {
			if len(h.Points) == 0 {
				continue
			}
			div := ""
			if h.Diverged(1.0, min(10, len(h.Points)-1)) {
				div = "yes"
			}
			gv := "-"
			if v := h.Final().GradVar; !math.IsNaN(v) {
				gv = fmt.Sprintf("%.4g", v)
			}
			fmt.Fprintf(&b, "%-40s %11.4f %11.4f %9.4f %9.4f %10s %9s\n",
				h.Label, h.Points[0].TrainLoss, h.Final().TrainLoss,
				h.BestAccuracy(), h.Final().TestAcc, gv, div)
		}
		for _, n := range sec.Notes {
			fmt.Fprintf(&b, "   note: %s\n", n)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\nnote: %s\n", n)
	}
	return b.String()
}

// Series renders the full per-round series of every run, the data behind
// the plotted curves.
func (r *Result) Series() string {
	var b strings.Builder
	for _, sec := range r.Sections {
		for _, h := range sec.Runs {
			fmt.Fprintf(&b, "[%s] ", sec.Name)
			b.WriteString(h.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// WriteCSV streams every evaluated point of every run as CSV rows,
// preceded, when header is set, by the header
// experiment,section,method,round,train_loss,test_acc,grad_var,mu: a file
// of several results carries it once, before the first.
func (r *Result) WriteCSV(w io.Writer, header bool) error {
	if header {
		if _, err := fmt.Fprintln(w, "experiment,section,method,round,train_loss,test_acc,grad_var,mu"); err != nil {
			return err
		}
	}
	for _, sec := range r.Sections {
		for _, h := range sec.Runs {
			for _, p := range h.Points {
				gv := ""
				if !math.IsNaN(p.GradVar) {
					gv = fmt.Sprintf("%g", p.GradVar)
				}
				if _, err := fmt.Fprintf(w, "%s,%q,%q,%d,%g,%g,%s,%g\n",
					r.ID, sec.Name, h.Label, p.Round, p.TrainLoss, p.TestAcc, gv, p.Mu); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Experiment is a runnable paper artifact.
type Experiment struct {
	// ID is the registry key.
	ID string
	// Title restates the paper artifact.
	Title string
	// plan declares the experiment's Result under the options given.
	plan func(Options) *Result
}

var registry = map[string]Experiment{}

func register(id, title string, p func(Options) *Result) {
	registry[id] = Experiment{ID: id, Title: title, plan: p}
}

// Lookup returns the experiment registered under id.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs returns all registered experiment ids in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
