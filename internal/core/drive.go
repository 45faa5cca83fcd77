package core

import (
	"errors"
	"fmt"
)

// Backend is what every executor of the one protocol loop runs: how a
// dispatch is shipped and how the model is measured. Everything else —
// the order commands run in, which event answers which command, when the
// run ends — is Drive's. Wait, ObserveLoss and AdvanceClock are
// abilities only some backends have (waiter, lossObserver, clock): a type
// has one exactly where the support table (support.go) lets an executor
// that builds it receive the command, and Drive fails a command whose
// method b lacks by naming both, wrapping errors.ErrUnsupported.
//
// A backend owns the coordinator's inbound events that originate outside
// the command stream (late replies, WorkerLost, mid-run RegisterWorker,
// Tick, DispatchSent): it feeds them itself and hands the commands they
// provoke to Drive through Wait.
type Backend interface {
	// Dispatch ships a run of consecutive Dispatch commands — a
	// synchronous round's cohort, or what one asynchronous fill issued —
	// after every command queued ahead of them ran, so each is stamped
	// with the clock as of its place in the queue. Every send that left
	// is confirmed with Coordinator.DispatchSent, in either mode — it is
	// what charges the dispatch's downlink and work. A backend whose
	// replies are in hand when it returns (in-process solves) returns
	// them in dispatch order and Drive feeds them; one whose replies
	// arrive later (the wire) returns none and feeds them in Wait.
	Dispatch([]Dispatch) ([]Reply, error)
	// Evaluate measures the model; Drive delivers the result as EvalDone.
	Evaluate(Evaluate) (EvalResult, error)
}

type (
	// waiter's replies arrive after Dispatch returns. Wait is called when
	// the command queue is empty: block for (or step to) the next arrival,
	// feed it, and return the commands it provoked. Returning none means
	// nothing is in flight either — the run stalled.
	waiter interface{ Wait() ([]Command, error) }
	// lossObserver measures the training loss for the adaptive-μ
	// controller; Drive delivers it as LossObserved.
	lossObserver interface {
		ObserveLoss(ObserveLoss) (float64, error)
	}
	// clock charges a synchronous round's critical path to a virtual clock.
	clock interface{ AdvanceClock(seconds float64) error }
)

// errStalled reports a coordinator that wants nothing run while its
// backend has nothing in flight — a protocol bug, never a normal end.
var errStalled = errors.New("core: coordinator stalled: no commands queued and no replies in flight")

// Drive is the command interpreter every executor shares: it runs cmds
// (what Start or an event method returned) and everything they provoke,
// strictly FIFO, against b, until the coordinator reports Done — or, for
// the windowed coordinator inside an Edge, pauses between rounds; Edge
// calls Drive again with its next window's commands. The ending command
// is returned; commands queued behind it are not run.
func Drive(coord *Coordinator, b Backend, cmds []Command) (end Command, err error) {
	w, _ := b.(waiter)
	lo, _ := b.(lossObserver)
	clk, _ := b.(clock)
	for {
		if len(cmds) == 0 && w != nil {
			if cmds, err = w.Wait(); err != nil {
				return nil, err
			}
		}
		if len(cmds) == 0 {
			return nil, errStalled
		}
		cmd := cmds[0]
		cmds = cmds[1:]
		var more []Command
		switch v := cmd.(type) {
		case Dispatch:
			batch := []Dispatch{v}
			for len(cmds) > 0 {
				d, ok := cmds[0].(Dispatch)
				if !ok {
					break
				}
				batch, cmds = append(batch, d), cmds[1:]
			}
			var replies []Reply
			replies, err = b.Dispatch(batch)
			for i := 0; i < len(replies) && err == nil; i++ {
				var provoked []Command
				provoked, err = coord.HandleReply(replies[i])
				more = append(more, provoked...)
			}
		case Evaluate:
			var res EvalResult
			if res, err = b.Evaluate(v); err == nil {
				more, err = coord.EvalDone(res)
			}
		case ObserveLoss:
			var loss float64
			if lo == nil {
				err = fmt.Errorf("core: backend %T cannot execute a %T command: %w", b, cmd, errors.ErrUnsupported)
			} else if loss, err = lo.ObserveLoss(v); err == nil {
				more, err = coord.LossObserved(loss)
			}
		case AdvanceClock:
			if clk == nil {
				err = fmt.Errorf("core: backend %T cannot execute a %T command: %w", b, cmd, errors.ErrUnsupported)
			} else {
				err = clk.AdvanceClock(v.Seconds)
			}
		case pause, Done:
			return cmd, nil
		default:
			err = fmt.Errorf("core: Drive: unknown command %T", cmd)
		}
		if err != nil {
			return nil, err
		}
		cmds = append(cmds, more...)
	}
}

// runToDone starts coord and drives it on b through its whole schedule.
func runToDone(coord *Coordinator, b Backend) (*History, error) {
	cmds, err := coord.Start()
	if err != nil {
		return nil, err
	}
	if _, err := Drive(coord, b, cmds); err != nil {
		return nil, err
	}
	return coord.History(), nil
}
