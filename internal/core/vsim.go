package core

// This file drives the asynchronous aggregation modes (AsyncTotal,
// Buffered) on the internal/vtime virtual clock. It is a pure driver of
// the shared core.Coordinator: every protocol decision — device choice,
// staleness damping, milestone cadence, the deadline and byte-budget
// policies — happens in the coordinator; this loop only turns Dispatch
// commands into local solves whose replies arrive on the seeded event
// queue in latency order.
//
// What the fednet runtime buys with wall-clock liveness the simulator
// buys back as reproducibility: the same seed always yields the same
// History, bit for bit, because arrival order is decided by the seeded
// latency model and the queue's (time, seq) tiebreak — never by
// goroutine scheduling. Both executors feed the identical coordinator,
// so their trajectories coincide by construction.
//
// Solves run on a bounded worker pool (Config.Parallelism goroutines)
// underneath the event queue. This cannot perturb the trajectory
// because a reply's arrival time is a pure function of the dispatch: the
// compute leg charges the epochs the device will deterministically run
// (the dispatch's budget truncation) and the uplink leg charges the
// codec's data-independent wire size (comm.Spec.WireSize) — so arrivals
// are scheduled before the solve finishes, the solve result is joined
// only when its arrival event fires, and folds still apply in the
// queue's (time, seq) order. Per-device codec state stays single-owner:
// the at-most-one-outstanding-dispatch-per-device invariant means a
// device is redispatched only after its previous reply was folded,
// which happens only after its solve was joined.

import (
	"fmt"
	"runtime"
	"sync"

	"fedprox/internal/model"
)

// solveFuture is one in-flight local solve: the arrival event joins it.
type solveFuture struct {
	done chan struct{}
	r    Reply
	err  error
}

func (f *solveFuture) wait() (Reply, error) {
	<-f.done
	return f.r, f.err
}

// solvePool runs device solves on a fixed set of worker goroutines.
// Submission never blocks the event loop: the backlog is sized to the
// maximum number of in-flight dispatches. It stays a channel pool, not
// tensor.ParallelFor, because it is cheap: on the benchmark's async
// vtime-fleet-eval (2-core Xeon) its sends, closures and futures are 0.25%
// of CPU samples, against 5.2% for the solves it runs.
type solvePool struct {
	work chan func()
	wg   sync.WaitGroup
}

func newSolvePool(workers, backlog int) *solvePool {
	if workers < 1 {
		workers = 1
	}
	p := &solvePool{work: make(chan func(), backlog)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for fn := range p.work {
				fn()
			}
		}()
	}
	return p
}

func (p *solvePool) submit(fn func() (Reply, error)) *solveFuture {
	f := &solveFuture{done: make(chan struct{})}
	p.work <- func() {
		f.r, f.err = fn()
		close(f.done)
	}
	return f
}

// close stops the workers after draining queued solves.
func (p *solvePool) close() {
	close(p.work)
	p.wg.Wait()
}

// runAsyncVTime executes the asynchronous aggregation modes on the
// virtual clock: up to MaxInFlight devices are in flight at all times,
// each reply folds (or buffers) damped by its staleness the moment it
// arrives, and Rounds counts model milestones of roundSize replies each,
// evaluated on the sync cadence.
func runAsyncVTime(m model.Model, fl Fleet, cfg Config) (*History, error) {
	coord, dev, err := newSimPair(m, fl, cfg)
	if err != nil {
		return nil, err
	}
	vt := newVtimer(cfg.VTime, int64(m.NumParams()*8))
	coord.Tick(vt.eng.Now())
	lat := cfg.VTime.Model

	// The uplink leg is charged before the solve completes, which is
	// only sound because every codec's encoded size is a pure function
	// of the parameter count (asserted against the realized reply at
	// arrival below).
	up := vt.paramBytes
	if cfg.Codec.Enabled() {
		_, spec := cfg.CommSpecs()
		up = spec.WireSize(m.NumParams())
	}

	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := newSolvePool(workers, cfg.Async.WithDefaults(cfg.ClientsPerRound).MaxInFlight+workers)
	defer pool.close()

	// The local solve is handed to the worker pool — the simulator will
	// know the answer before it is due — and the reply's arrival is
	// scheduled immediately from the dispatch alone. The compute leg
	// charges the epochs the device will actually run: the budget
	// truncation is deterministic device-side arithmetic, mirrored here.
	launch := func(v Dispatch) (float64, func() (Reply, error)) {
		epochs := expectedEpochs(v.EpochBudget, v.Epochs)
		fut := pool.submit(func() (Reply, error) { return dev.HandleDispatch(v) })
		sent := vt.eng.Now()
		arrive := sent +
			lat.DownlinkSeconds(v.Seq, v.Device, v.DownBytes) +
			lat.ComputeSeconds(v.Seq, v.Device, epochs) +
			lat.UplinkSeconds(v.Seq, v.Device, up)
		lost := lat.Dropped(v.Seq, v.Device)
		return arrive, func() (Reply, error) {
			r, err := fut.wait()
			if err != nil {
				return r, err
			}
			if r.EpochsDone != epochs || vt.uplinkBytes(r) != up {
				return r, fmt.Errorf("core: vtime arrival charged %d epochs/%d uplink bytes but device %d realized %d/%d",
					epochs, up, r.Device, r.EpochsDone, vt.uplinkBytes(r))
			}
			// Stamp the reply's own latency: the deadline policy must
			// judge it, not the clock delta at arrival (an eval charge
			// can overtake the scheduled arrival time).
			r.Timed, r.Seq, r.Rel, r.Lost = true, v.Seq, arrive-sent, lost
			return r, nil
		}
	}
	eval := func(v Evaluate) EvalResult { return simEval(m, fl, v) }
	return runToDone(coord, &vtimeBackend{inProcess: inProcess{coord: coord, vt: vt, eval: eval}, launch: launch})
}

// vtimeBackend is the asynchronous in-process Backend: every Dispatch
// becomes an arrival event on the seeded virtual-time queue, and Wait
// steps the queue to the next one. Live runs and async replay differ
// only in launch (where a reply comes from) and eval.
type vtimeBackend struct {
	inProcess
	// launch starts one dispatch's round trip at the current virtual time
	// and returns when its reply arrives and how to join it (already
	// stamped Timed/Seq/Rel/Lost). A nil join means no reply ever comes.
	launch func(Dispatch) (arrive float64, join func() (Reply, error))
	// arrived and err collect what fired events provoked, for Wait to
	// hand to Drive.
	arrived []Command
	err     error
}

func (b *vtimeBackend) Dispatch(ds []Dispatch) ([]Reply, error) {
	for _, v := range ds {
		// In-process shipping cannot fail, so the transfer is confirmed
		// immediately.
		b.coord.DispatchSent(v.Device)
		arrive, join := b.launch(v)
		if join == nil {
			continue
		}
		b.vt.eng.Schedule(arrive, func() {
			r, err := join()
			if err != nil {
				b.deliver(nil, err)
				return
			}
			b.coord.Tick(b.vt.eng.Now())
			b.deliver(b.coord.HandleReply(r))
		})
	}
	return nil, nil
}

// deliver records the outcome of one fired event's coordinator call.
func (b *vtimeBackend) deliver(more []Command, err error) {
	if b.err == nil {
		b.err = err
	}
	b.arrived = append(b.arrived, more...)
}

// Wait steps the event queue until an arrival provokes commands. Drain
// semantics: replies arriving after the schedule completed are waste,
// recorded in the arrival trace but not the evaluated history — the
// coordinator emits Done only once the last in-flight reply has landed.
// An exhausted queue returns nothing, which Drive reports as a stall.
func (b *vtimeBackend) Wait() ([]Command, error) {
	for len(b.arrived) == 0 && b.err == nil && b.vt.eng.Step() {
	}
	cmds := b.arrived
	b.arrived = nil
	return cmds, b.err
}
