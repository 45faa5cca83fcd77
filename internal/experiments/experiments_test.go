package experiments

import (
	"encoding/csv"
	"math"
	"runtime"
	"strings"
	"testing"

	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/model"
	"fedprox/internal/model/linear"
	"fedprox/internal/model/lstm"
)

// micro returns options small enough that any single experiment runs in
// well under a second.
func micro() Options {
	o := Fast()
	o.Scale = 0.08
	o.Rounds = 4
	o.SeqRounds = 2
	o.EvalEvery = 2
	o.LocalEpochs = 3
	o.Hidden = 4
	o.Embed = 3
	o.MaxSeqLen = 5
	o.Datasets = []string{"synthetic"}
	return o
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ext-async", "ext-bias", "ext-codecs", "ext-comm", "ext-gamma", "ext-hier", "ext-nonconvex", "ext-partialwork", "ext-precision", "ext-privacy", "ext-solvers", "ext-syshet", "ext-theory", "ext-vtime",
		"figure1", "figure10", "figure11", "figure12", "figure2", "figure3",
		"figure4", "figure5", "figure6", "figure7", "figure8", "figure9", "table1",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	for _, id := range got {
		e, ok := Lookup(id)
		if !ok || e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %q incompletely registered", id)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("figure99", micro()); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestWantDataset(t *testing.T) {
	o := Options{}
	if !o.wantDataset("anything") {
		t.Fatal("nil filter must allow everything")
	}
	o.Datasets = []string{"mnist"}
	if o.wantDataset("synthetic") || !o.wantDataset("mnist") {
		t.Fatal("filter not applied")
	}
}

func TestFigure2Shapes(t *testing.T) {
	res, err := Run("figure2", micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections) != 4 {
		t.Fatalf("sections = %d, want 4 synthetic datasets", len(res.Sections))
	}
	names := []string{"Synthetic-IID", "Synthetic(0,0)", "Synthetic(0.5,0.5)", "Synthetic(1,1)"}
	for i, sec := range res.Sections {
		if sec.Name != names[i] {
			t.Fatalf("section %d = %q, want %q", i, sec.Name, names[i])
		}
		if len(sec.Runs) != 2 {
			t.Fatalf("section %q has %d runs, want 2", sec.Name, len(sec.Runs))
		}
		for _, h := range sec.Runs {
			for _, p := range h.Points {
				if !(p.GradVar >= 0) {
					t.Fatalf("figure2 must track dissimilarity; got GradVar=%g", p.GradVar)
				}
			}
		}
	}
}

func TestFigure1GridStructure(t *testing.T) {
	res, err := Run("figure1", micro())
	if err != nil {
		t.Fatal(err)
	}
	// synthetic only -> 3 straggler levels.
	if len(res.Sections) != 3 {
		t.Fatalf("sections = %d, want 3", len(res.Sections))
	}
	for _, sec := range res.Sections {
		if len(sec.Runs) != 3 {
			t.Fatalf("section %q has %d runs, want FedAvg + 2 FedProx", sec.Name, len(sec.Runs))
		}
		if sec.Runs[0].Label != "FedAvg" {
			t.Fatalf("first run = %q, want FedAvg", sec.Runs[0].Label)
		}
	}
	// 0%-straggler FedAvg and FedProx(mu=0) must coincide exactly.
	zero := res.Sections[0]
	for i := range zero.Runs[0].Points {
		if zero.Runs[0].Points[i].TrainLoss != zero.Runs[1].Points[i].TrainLoss {
			t.Fatal("FedAvg != FedProx(mu=0) without stragglers")
		}
	}
}

func TestFigure3AdaptiveSections(t *testing.T) {
	res, err := Run("figure3", micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections) != 2 {
		t.Fatalf("sections = %d, want 2", len(res.Sections))
	}
	for _, sec := range res.Sections {
		foundAdaptive := false
		for _, h := range sec.Runs {
			if strings.Contains(h.Label, "adaptive") {
				foundAdaptive = true
			}
		}
		if !foundAdaptive {
			t.Fatalf("section %q lacks an adaptive run", sec.Name)
		}
	}
}

func TestFigure4IncludesFedDane(t *testing.T) {
	o := micro()
	res, err := Run("figure4", o)
	if err != nil {
		t.Fatal(err)
	}
	// 4 datasets x (mu sweep + c sweep).
	if len(res.Sections) != 8 {
		t.Fatalf("sections = %d, want 8", len(res.Sections))
	}
	dane := 0
	for _, sec := range res.Sections {
		for _, h := range sec.Runs {
			if strings.HasPrefix(h.Label, "FedDane") {
				dane++
			}
		}
	}
	if dane != 4*2+4*3 {
		t.Fatalf("FedDane runs = %d, want 20", dane)
	}
}

func TestFigure5Grid(t *testing.T) {
	res, err := Run("figure5", micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections) != 4 {
		t.Fatalf("sections = %d, want 4 straggler levels", len(res.Sections))
	}
}

func TestFigure7ComputesImprovement(t *testing.T) {
	res, err := Run("figure7", micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Notes) == 0 {
		t.Fatal("figure7 missing the improvement note")
	}
	if !strings.Contains(res.Notes[len(res.Notes)-1], "improvement") {
		t.Fatalf("unexpected note: %q", res.Notes[len(res.Notes)-1])
	}
	found := false
	for _, sec := range res.Sections {
		if is90(sec.Name) && len(sec.Notes) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no per-section settled-accuracy notes at 90% stragglers")
	}
}

func TestFigure9UsesOneEpoch(t *testing.T) {
	res, err := Run("figure9", micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections) != 3 {
		t.Fatalf("sections = %d, want 3", len(res.Sections))
	}
	for _, sec := range res.Sections {
		if len(sec.Runs) != 2 {
			t.Fatalf("figure9 compares 2 methods, got %d", len(sec.Runs))
		}
	}
}

func TestFigure11And12Structure(t *testing.T) {
	res11, err := Run("figure11", micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(res11.Sections) != 4 {
		t.Fatalf("figure11 sections = %d, want 4", len(res11.Sections))
	}
	res12, err := Run("figure12", micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(res12.Sections) != 4 {
		t.Fatalf("figure12 sections = %d, want 4", len(res12.Sections))
	}
	for _, sec := range res12.Sections {
		if len(sec.Runs) != 4 {
			t.Fatalf("figure12 section %q runs = %d, want 4 (2 schemes x 2 mu)", sec.Name, len(sec.Runs))
		}
	}
}

// TestTable1RunsAtPaperScale runs the Table 1 claims: the generated
// device counts and sample totals against the paper's.
func TestTable1RunsAtPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale generation in -short mode")
	}
	for _, c := range claims {
		if c.exp == "table1" {
			t.Run(c.id, c.run)
		}
	}
}

func TestSummaryAndSeriesRender(t *testing.T) {
	res, err := Run("figure5", micro())
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	if !strings.Contains(sum, "figure5") || !strings.Contains(sum, "FedAvg") {
		t.Fatalf("summary incomplete:\n%s", sum)
	}
	series := res.Series()
	if !strings.Contains(series, "round") {
		t.Fatal("series output missing header")
	}
}

func TestWriteCSV(t *testing.T) {
	res, err := Run("figure5", micro())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb, true); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "experiment,section,method,round,train_loss,test_acc,grad_var,mu" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) < 10 {
		t.Fatalf("csv has only %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "figure5,") {
		t.Fatalf("csv row = %q", lines[1])
	}
}

// TestWriteCSVOneHeaderPerFile: two results written to one file, as
// fedbench -exp a,b -csv does, parse with encoding/csv as one header and
// then only data rows, every one of the header's width.
func TestWriteCSVOneHeaderPerFile(t *testing.T) {
	run := func(label string, rounds ...int) *core.History {
		h := &core.History{Label: label}
		for _, r := range rounds {
			h.Points = append(h.Points, core.Point{Round: r, TrainLoss: 1, TestAcc: 0.5, GradVar: math.NaN(), Mu: 1})
		}
		return h
	}
	var b strings.Builder
	for i, res := range []*Result{
		{ID: "ext-precision", Sections: []Section{{Name: "f64, f32", Runs: []*core.History{run("FedProx", 0, 5)}}}},
		{ID: "ext-partialwork", Sections: []Section{{Name: "drop", Runs: []*core.History{run("FedAvg", 0, 5, 10)}}}},
	} {
		if err := res.WriteCSV(&b, i == 0); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+5 {
		t.Fatalf("%d records, want a header and 5 rows:\n%s", len(rows), b.String())
	}
	for i, row := range rows[1:] {
		if row[0] == rows[0][0] || len(row) != len(rows[0]) {
			t.Errorf("record %d is not a data row of %d fields: %q", i+1, len(rows[0]), row)
		}
	}
	if rows[5][0] != "ext-partialwork" || rows[5][3] != "10" {
		t.Errorf("last row = %q", rows[5])
	}
}

func TestLSTMWorkloadsRun(t *testing.T) {
	o := micro()
	o.Datasets = []string{"sent140"}
	res, err := Run("figure9", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections) != 3 {
		t.Fatalf("sections = %d", len(res.Sections))
	}
	for _, sec := range res.Sections {
		for _, h := range sec.Runs {
			if h.Final().TrainLoss != h.Final().TrainLoss {
				t.Fatal("LSTM workload produced NaN loss")
			}
		}
	}
}

func TestNamedWorkload(t *testing.T) {
	o := micro()
	for _, key := range []string{"synthetic", "synthetic-iid", "mnist", "femnist", "shakespeare", "sent140"} {
		w, err := o.NamedWorkload(key)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if w.Fleet == nil || w.Model == nil || w.LR <= 0 || w.Rounds <= 0 {
			t.Fatalf("%s: incomplete workload %+v", key, w)
		}
	}
	if _, err := o.NamedWorkload("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestNamedWorkloadBuildsNoShard: NamedWorkload makes a fleet's shared
// draws and sizes the model, and builds no device. At Full() scale it
// allocates under a fiftieth of what building every device allocates,
// and its model has the shape the built dataset asks for.
func TestNamedWorkloadBuildsNoShard(t *testing.T) {
	o := Full()
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, key := range []string{"synthetic", "synthetic-iid", "mnist", "femnist", "shakespeare", "sent140"} {
		var w Workload
		lazy := allocated(func() {
			var err error
			if w, err = o.NamedWorkload(key); err != nil {
				t.Fatal(err)
			}
		})
		var fed *data.Federated
		eager := allocated(func() { fed = data.Generate(w.Fleet) })
		t.Logf("%s: NamedWorkload %d B, every device %d B", key, lazy, eager)
		if lazy*50 > eager {
			t.Errorf("%s: NamedWorkload allocated %d B, building every device %d B: it builds devices", key, lazy, eager)
		}
		var want model.Model
		if fed.FeatureDim > 0 {
			want = linear.ForDataset(fed)
		} else {
			want = lstm.ForDataset(fed, o.Embed, o.Hidden, o.Layers)
		}
		if w.Model.NumParams() != want.NumParams() || fed.NumDevices() != w.Fleet.NumDevices() {
			t.Errorf("%s: model of %d params over %d devices, want %d params over %d", key, w.Model.NumParams(), w.Fleet.NumDevices(), want.NumParams(), fed.NumDevices())
		}
	}
}

func TestBaseConfigUsesWorkloadHyperparams(t *testing.T) {
	o := micro()
	w := o.syntheticWorkload(1, 1, false)
	c := o.base(w)
	if c.LearningRate != 0.01 {
		t.Fatalf("synthetic lr = %g, want paper 0.01", c.LearningRate)
	}
	if c.Rounds != o.Rounds || c.ClientsPerRound != o.ClientsPerRound {
		t.Fatal("base config ignored options")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = core.Label(c)
}
