package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// contract is the part of BENCHMARK.json that judging a report needs.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// setupFloor is the issue's absolute allowance on setup_s: a set-up may
// get worse, or spread, by its bound or by this many seconds, whichever
// is larger. The lazy fleet builds in 3 ms, and a quarter of that is not
// a regression anyone waits for.
const setupFloor = 0.10

// compareReports prints one row per end-to-end metric and workload: the
// median of each report, how much worse the second is as a share of the
// first, the bound, and a verdict. A row is worse past its bound, and
// unresolved where either report's own runs spread wider than the bound
// (a report of one run has no spread to judge). It fails on any worse.
func compareReports(out io.Writer, manifest string, paths []string) error {
	if len(paths) != 2 {
		return errors.New("-compare takes two report files")
	}
	var c contract
	if err := readJSON(manifest, &c); err != nil {
		return err
	}
	var reps [2]map[string]map[string]series
	for i, p := range paths {
		var r report
		if err := readJSON(p, &r); err != nil {
			return err
		}
		reps[i] = map[string]map[string]series{}
		for _, w := range r.Workloads {
			reps[i][w.Name] = w.EndToEnd
		}
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tbound\tspread a\tspread b\tverdict")
	worse := 0
	for _, w := range c.Workloads {
		for _, m := range c.EndToEnd {
			a, b := reps[0][w.Name][m.Name], reps[1][w.Name][m.Name]
			by := (b.Value - a.Value) / math.Abs(a.Value)
			if m.Better == "higher" {
				by = -by
			}
			sa, sb := spread(a.Values), spread(b.Values)
			bound := m.Bound
			if m.Name == "setup_s" {
				bound = max(bound, setupFloor/math.Abs(a.Value))
			}
			verdict := "within"
			switch {
			case by > bound || math.IsNaN(by):
				verdict = "worse"
				worse++
			case sa > bound || sb > bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%.2f%%\t%.2f%%\t%s\n",
				w.Name, m.Name, a.Value, b.Value, 100*by, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d rows worse than their bound", worse)
	}
	return nil
}

// spread is the distance between the first and third quartile of v as a
// share of its median, the quartiles as Python's
// statistics.quantiles(v, n=4) gives them; 0 for fewer than two values.
func spread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / math.Abs(median(s))
}
