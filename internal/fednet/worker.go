package fednet

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/model"
	"fedprox/internal/obs"
	"fedprox/internal/solver"
	"fedprox/internal/tensor"
)

// Worker is the transport shell around one device runtime: it registers
// what the runtime hosts, completes the codec negotiation, and hands each
// decoded core.Dispatch and core.EvalRequest to the runtime's
// HandleDispatch/HandleEval as it is. All device-side protocol — downlink
// decode and link state, the local solve with compute-budget truncation,
// the uplink encode, the eval receive chain — lives in the runtime,
// which is the same type the simulator drives in process, so worker
// behavior cannot drift from the simulator's. Raw examples never leave
// the worker.
type Worker struct {
	dev deviceRuntime
	// params is the model's parameter count, which sizes the frames this
	// worker accepts.
	params int

	// Offer restricts which update codecs this worker advertises in its
	// Hello; nil advertises every codec comm registers. The coordinator
	// aborts the session if its configured codec is not offered.
	Offer []string

	// PrecisionOffer restricts which arithmetic widths this worker
	// advertises; nil advertises every width the device runtime actually
	// supports (see core.Device.SupportsPrecision). Setting it models an
	// older or constrained worker — e.g. []string{"f64"} for a binary
	// predating the f32 path — and the coordinator aborts the session if
	// its configured precision is not offered.
	PrecisionOffer []string

	// trace mirrors DeviceOptions.Trace: the runtime emits the per-request
	// device events, the worker shell adds a worker-solve span around each
	// dispatch so the wall cost of the local solve (decode + SGD + encode)
	// is visible per device.
	trace obs.Sink
}

// deviceRuntime is the device half of the protocol as Worker drives it. A
// *core.Device answers a dispatch with a local solve on a hosted shard; a
// *core.Edge, the runtime under a tier Edge's parent-facing Worker,
// answers it with one window over its own children.
type deviceRuntime interface {
	Hosted() []core.DeviceReg
	SupportsPrecision(tensor.Precision) bool
	InstallLinks(down, up comm.Spec) error
	SeedEvalPrev(prev []float64) error
	HandleDispatch(core.Dispatch) (core.Reply, error)
	HandleEval(core.EvalRequest) (core.EvalReply, error)
}

// NewWorker builds a worker hosting the given shards. A nil localSolver
// selects mini-batch SGD. The device runtime is seeded with raw links so
// a worker can also be driven directly in tests; Serve replaces them
// with the negotiated specs.
func NewWorker(mdl model.Model, shards []*data.Shard, localSolver solver.LocalSolver) *Worker {
	return NewWorkerWithOptions(mdl, shards, core.DeviceOptions{Solver: localSolver})
}

// NewWorkerWithOptions is NewWorker with the full set of client-side
// knobs — in particular DeviceOptions.Privacy, the only place
// update-level DP can be configured in a fednet deployment (the
// mechanism clips and noises solutions before the uplink encode, so it
// is worker state; the server config rejects it). TrackGamma is forced
// off: the wire protocol does not carry γ, so probing it on a worker
// would only waste a gradient pass per dispatch.
func NewWorkerWithOptions(mdl model.Model, shards []*data.Shard, opts core.DeviceOptions) *Worker {
	if mdl == nil || len(shards) == 0 {
		panic("fednet: worker needs a model and at least one shard")
	}
	opts.TrackGamma = false
	dev := core.NewDevice(mdl, shards, opts)
	raw := comm.Spec{Name: "raw"}.WithDefaults()
	if err := dev.InstallLinks(raw, raw); err != nil {
		panic(err) // the raw spec is statically valid
	}
	return &Worker{dev: dev, params: mdl.NumParams(), trace: opts.Trace}
}

// Run connects to the coordinator at addr, registers, and serves until
// the coordinator sends Shutdown or the connection drops.
func (w *Worker) Run(addr string) error {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("fednet: dial %s: %w", addr, err)
	}
	c := newConn(raw)
	defer c.close()
	return w.Serve(c)
}

// hello is this worker's registration: the shards it hosts and the
// codecs and widths it offers.
func (w *Worker) hello() Hello {
	hello := Hello{Codecs: w.Offer}
	if hello.Codecs == nil {
		hello.Codecs = comm.Names()
	}
	// Offer exactly the widths this runtime can execute: "f32" appears
	// only when the model, solver, and privacy configuration complete the
	// float32 path, so the coordinator can never negotiate a precision
	// the device would have to refuse at link installation.
	hello.Precisions = w.PrecisionOffer
	if hello.Precisions == nil {
		for _, p := range tensor.Precisions() {
			if w.dev.SupportsPrecision(tensor.Precision(p)) {
				hello.Precisions = append(hello.Precisions, p)
			}
		}
	}
	hello.Devices = w.dev.Hosted()
	return hello
}

// register says hello over c and returns the coordinator's Welcome, once
// it accepts the registration and honours the offer: a coordinator
// (version-skewed or misbehaving) must not be able to install a codec the
// hello declined to advertise. params is the model's parameter count,
// which sizes the frames c accepts from here on.
func register(c *conn, hello *Hello, params int) (*Welcome, error) {
	if err := c.send(Envelope{Hello: hello}); err != nil {
		return nil, err
	}
	// The largest Welcome is a re-admission's, with the eval chain's base.
	c.limit = frameLimit(8 * int64(params))
	env, err := c.recv()
	if err != nil {
		return nil, err
	}
	welcome := env.Welcome
	if welcome == nil {
		return nil, fmt.Errorf("fednet: expected Welcome, got %+v", env)
	}
	if welcome.Err != "" {
		return nil, errors.New(welcome.Err)
	}
	for _, name := range []string{welcome.Downlink.Name, welcome.Uplink.Name} {
		if !slices.Contains(hello.Codecs, name) {
			return nil, fmt.Errorf("fednet: coordinator selected codec %q, but only %v were offered", name, hello.Codecs)
		}
	}
	// The session's largest frame is a TrainRequest on the downlink or an
	// EvalRequest on the eval link, which comm.NewEvalLink runs at full
	// width whatever the downlink's precision.
	eval := welcome.Downlink
	eval.Precision = tensor.F64
	c.limit = frameLimit(welcome.Downlink.WireSize(params), eval.WireSize(params))
	return welcome, nil
}

// Serve registers over c, completes the codec negotiation, and processes
// requests until Shutdown.
func (w *Worker) Serve(c *conn) error {
	hello := w.hello()
	welcome, err := register(c, &hello, w.params)
	if err != nil {
		return err
	}
	for _, p := range []tensor.Precision{welcome.Downlink.Precision, welcome.Uplink.Precision} {
		if !slices.Contains(hello.Precisions, p.String()) {
			return fmt.Errorf("fednet: coordinator selected precision %q, but this worker offered only %v", p.String(), hello.Precisions)
		}
	}
	if err := w.dev.InstallLinks(welcome.Downlink, welcome.Uplink); err != nil {
		return err
	}
	// A re-admission Welcome carries the eval chain's current base so
	// this worker decodes the next broadcast in lockstep with the
	// evaluators that never left.
	if err := w.dev.SeedEvalPrev(welcome.EvalPrev); err != nil {
		return err
	}
	// Each TrainRequest is served in its own goroutine so the coordinator
	// can pipeline work for several hosted devices over one connection
	// (it never has more than one request outstanding per device, so
	// per-device link state stays single-owner) and this loop never
	// blocks on a send while requests are still arriving. A send failure
	// inside a handler means the connection is broken; the serve loop's
	// next recv surfaces it.
	var handlers sync.WaitGroup
	defer handlers.Wait()
	for {
		env, err := c.recv()
		if err != nil {
			return err
		}
		switch {
		case env.TrainRequest != nil:
			d := env.TrainRequest
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				reply := w.train(d)
				_ = c.send(Envelope{TrainReply: &reply})
				if reply.Update != nil {
					reply.Update.Release()
				}
			}()
		case env.EvalRequest != nil:
			// Eval broadcasts are strictly sequential per deployment and
			// the eval link chains on their order: decode inline, then
			// compute metrics concurrently with any running solves.
			reply := w.eval(env.EvalRequest)
			if err := c.send(Envelope{EvalReply: &reply}); err != nil {
				return err
			}
		case env.Shutdown != nil:
			return nil
		default:
			return fmt.Errorf("fednet: worker received unexpected envelope %+v", env)
		}
	}
}

// train serves one dispatch; its reply echoes the Round and Version.
func (w *Worker) train(d *core.Dispatch) TrainReply {
	defer obs.StartSpan(w.trace, obs.Event{Label: "worker-solve", Device: d.Device}).End()
	reply := TrainReply{Round: d.Round, Version: d.Version}
	var err error
	if reply.Reply, err = w.dev.HandleDispatch(*d); err != nil {
		reply.Device, reply.Err = d.Device, err.Error()
	}
	return reply
}

// eval serves one evaluation broadcast.
func (w *Worker) eval(q *core.EvalRequest) EvalReply {
	var reply EvalReply
	var err error
	if reply.EvalReply, err = w.dev.HandleEval(*q); err != nil {
		reply.Seq, reply.Err = q.Seq, err.Error()
	}
	return reply
}
