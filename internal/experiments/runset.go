package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/feddane"
	"fedprox/internal/model"
)

// A request asks a run set for one run and names how its view prints it.
type request struct {
	workload workloadKey
	cfg      core.Config
	dane     int    // when positive, FedDane with dane gradient clients runs in place of core.Run
	label    string // when set, replaces the run's own label in the view
}

// workloadKey is a load key with every option that decides the
// workload's devices and its model's shape.
type workloadKey struct {
	name                             string
	scale                            float64
	maxSeqLen, embed, hidden, layers int
}

// request asks for cfg over the workload o loads as key.
func (o Options) request(key string, cfg core.Config) request {
	return request{workload: workloadKey{key, o.Scale, o.MaxSeqLen, o.Embed, o.Hidden, o.Layers}, cfg: cfg}
}

func (r request) labelled(label string) request {
	r.label = label
	return r
}

// key is everything that decides r's bits: r without its label, its
// trace sink and what it tracks, none of which moves a bit.
func (r request) key() request {
	r.cfg.Trace, r.cfg.TrackDissimilarity, r.cfg.TrackGamma = nil, false, false
	r.label = ""
	return r
}

// finishOnly declares an experiment a run set cannot key — over fednet,
// RunTiered, its own fleet or no runs: its finish step executes it whole.
func finishOnly(f func(o Options, res *Result) error) func(Options) *Result {
	return func(o Options) *Result {
		return &Result{finish: func(res *Result) error { return f(o, res) }}
	}
}

// A runSet executes the runs its planned experiments request, each
// distinct configuration once, when the first experiment showing it
// executes. It builds a workload's devices when a run first needs them
// and drops them once its last planned run has executed.
type runSet struct {
	planned map[string]*Result  // declared, by experiment id, for Run
	runs    map[request]*run    // by request key
	open    map[workloadKey]int // planned runs yet to execute
	built   map[workloadKey]built
}

// A run is one distinct configuration: the first request's, tracking
// what any request asks for.
type run struct {
	request
	done    bool
	hist    *core.History
	seconds float64
	err     error
}

type built struct {
	fed *data.Federated
	mdl model.Model
}

func newRunSet() *runSet {
	return &runSet{planned: map[string]*Result{}, runs: map[request]*run{}, open: map[workloadKey]int{}, built: map[workloadKey]built{}}
}

// plan declares experiment id under o into s and returns its declared
// Result. A request for a run s holds shares it and ORs in what it
// tracks; a run already executed without the tracking a request asks
// for runs again.
func (s *runSet) plan(id string, o Options) (*Result, error) {
	e, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	decl := e.plan(o)
	decl.ID = id
	for _, sec := range decl.Sections {
		for _, r := range sec.requests {
			x, ok := s.runs[r.key()]
			if !ok || x.done && (r.cfg.TrackDissimilarity && !x.cfg.TrackDissimilarity || r.cfg.TrackGamma && !x.cfg.TrackGamma) {
				x = &run{request: r}
				s.runs[r.key()] = x
				s.open[r.workload]++
			}
			x.cfg.TrackDissimilarity = x.cfg.TrackDissimilarity || r.cfg.TrackDissimilarity
			x.cfg.TrackGamma = x.cfg.TrackGamma || r.cfg.TrackGamma
		}
	}
	s.planned[id] = decl
	return decl, nil
}

// result executes the runs of decl that have not executed, then its
// finish step, and returns the result decl declares.
func (s *runSet) result(decl *Result) (*Result, error) {
	res := *decl
	res.finish, res.Sections = nil, slices.Clone(res.Sections)
	for i := range res.Sections {
		sec := &res.Sections[i]
		for _, r := range sec.requests {
			x := s.execute(r)
			if x.err != nil {
				return nil, fmt.Errorf("%s: %w", r.workload.name, x.err)
			}
			sec.Runs = append(sec.Runs, x.view(r))
			sec.Seconds = append(sec.Seconds, x.seconds)
		}
	}
	if decl.finish != nil {
		if err := decl.finish(&res); err != nil {
			return nil, err
		}
	}
	return &res, nil
}

// execute runs r's run unless it has run.
func (s *runSet) execute(r request) *run {
	x := s.runs[r.key()]
	if x.done {
		return x
	}
	w, ok := s.built[r.workload]
	if !ok {
		k := r.workload
		lazy := Options{Scale: k.scale, MaxSeqLen: k.maxSeqLen, Embed: k.embed, Hidden: k.hidden, Layers: k.layers}.load(k.name)
		w = built{fed: data.Generate(lazy.Fleet), mdl: lazy.Model}
		s.built[k] = w
	}
	start := time.Now()
	if x.dane > 0 {
		x.hist, x.err = feddane.Run(w.mdl, w.fed, feddane.Config{Config: x.cfg, GradClients: x.dane})
	} else {
		x.hist, x.err = core.Run(w.mdl, w.fed, x.cfg)
	}
	x.seconds, x.done = time.Since(start).Seconds(), true
	if s.open[r.workload]--; s.open[r.workload] == 0 {
		delete(s.built, r.workload)
	}
	return x
}

// view is x as r prints it: under r's label, with the gradient-variance
// and γ columns NaN unless r asked for them.
func (x *run) view(r request) *core.History {
	h := *x.hist
	h.Points = slices.Clone(h.Points)
	for i := range h.Points {
		p := &h.Points[i]
		if !r.cfg.TrackDissimilarity {
			p.GradVar, p.B = math.NaN(), math.NaN()
		}
		if !r.cfg.TrackGamma {
			p.MeanGamma = math.NaN()
		}
	}
	if r.label != "" {
		h.Label = r.label
	}
	return &h
}

// Together returns o over one run set into which ids are planned, in
// order, up to the first id no experiment is registered under. Run over
// the returned options shares their runs: each distinct configuration
// executes, and traces, once, tracking what any of them asks for.
func Together(o Options, ids ...string) Options {
	o.runs = newRunSet()
	for _, id := range ids {
		if _, ok := o.runs.planned[id]; ok {
			continue
		}
		if _, err := o.runs.plan(id, o); err != nil {
			break
		}
	}
	return o
}

// Run executes the experiment registered under id: over o's run set when
// o comes from Together, else over a run set of its own.
func Run(id string, o Options) (*Result, error) {
	s := o.runs
	if s == nil {
		s = newRunSet()
	}
	decl, ok := s.planned[id]
	if !ok {
		var err error
		if decl, err = s.plan(id, o); err != nil {
			return nil, err
		}
	}
	return s.result(decl)
}
