package core

import (
	"fmt"

	"fedprox/internal/comm"
	"fedprox/internal/tensor"
)

// rawBytes prices an uncoded transfer of n parameters at width p: what
// the raw codec would put on the wire (comm.Spec.WireSize), so switching
// raw on changes no byte count (Cost).
func rawBytes(n int, p tensor.Precision) int64 {
	return comm.Spec{Name: "raw", Precision: p}.WireSize(n)
}

// commLinks is the coordinator's view of the network codec state: one
// comm.LinkState holding, per device, the downlink and uplink codec
// instances and the last delivered broadcast, plus the shared
// evaluation-broadcast link. It is the same state the fednet runtime
// keeps at its two endpoints, which is why a codec-enabled simulator run
// and a fednet run under the same seed see identical compressed streams.
type commLinks struct {
	state *comm.LinkState
	// eval is the shared evaluation-broadcast link: with a codec
	// configured, every evaluation happens at the decoded eval broadcast
	// — exactly what the fednet workers compute their metrics from — and
	// its encoded size lands in Cost.EvalBytes.
	eval *comm.EvalLink
}

func newCommLinks(downSpec, upSpec comm.Spec) (*commLinks, error) {
	if downSpec.Precision != upSpec.Precision {
		return nil, fmt.Errorf("core: downlink precision %q != uplink precision %q (both directions of a deployment share one arithmetic width)",
			downSpec.Precision.String(), upSpec.Precision.String())
	}
	state, err := comm.NewLinkState(downSpec, upSpec)
	if err != nil {
		return nil, err
	}
	eval, err := comm.NewEvalLink(downSpec)
	if err != nil {
		return nil, err
	}
	return &commLinks{state: state, eval: eval}, nil
}

// evalBroadcast encodes wt on the shared eval link and returns the
// encoded update (wire drivers ship it to every evaluator verbatim) plus
// the view the network evaluates at.
func (l *commLinks) evalBroadcast(wt []float64) (*comm.Update, []float64, error) {
	u, view, err := l.eval.Broadcast(wt)
	if err != nil {
		return nil, nil, fmt.Errorf("core: eval broadcast: %w", err)
	}
	return u, view, nil
}

// evalPrev returns the eval link's current chain base (nil when the eval
// codec is chain-free) — the state a re-admitted worker must seed its
// own eval link with to decode the next broadcast in lockstep.
func (l *commLinks) evalPrev() []float64 { return l.eval.PrevView() }

// broadcast encodes wt for device k's downlink, decodes it as the device
// will, and returns the encoded update, the device's view of the global
// model, and the wire bytes moved. It also creates the device's uplink
// codec on first contact, so the solve phase only ever reads the link
// maps. Safe to call concurrently for distinct devices (a round's cohort
// is; beginRound does): LinkState guards its maps, and the codecs, the
// rounding stream and the broadcast shadow it advances are device k's
// alone. wt is only read. The view is the uplink decode base: a link that
// adopts it as k's shadow lends it to the coordinator until k's next
// broadcast, which waits for k's one outstanding reply; otherwise it is a
// pooled vector the coordinator owns (downcast.owned).
func (l *commLinks) broadcast(k int, wt []float64) downcast {
	enc, _, err := l.state.Link(k)
	if err != nil {
		return downcast{err: fmt.Errorf("core: device %d: %w", k, err)}
	}
	// On an f32 deployment the codec narrows wt on its way in and the view
	// it decodes is float32-representable, so the pendingDispatch view the
	// fold subtracts against is bit-locked with the device's.
	prev := l.state.Prev(k)
	u := enc.Encode(wt, prev)
	view, err := enc.Decode(u, prev)
	if err != nil {
		return downcast{err: fmt.Errorf("core: downlink decode for device %d: %w", k, err)}
	}
	return downcast{u: u, view: view, owned: !l.state.SetPrev(k, view), db: u.WireBytes()}
}

// uplinkDecode reconstructs a device's uplink reply against the
// broadcast view it trained from. Decoding is stateless. The result is a
// pooled vector that either fold mode recycles, as it does a raw reply's.
func (l *commLinks) uplinkDecode(k int, u *comm.Update, view []float64) ([]float64, error) {
	_, dec, err := l.state.Link(k)
	if err != nil {
		return nil, fmt.Errorf("core: device %d: %w", k, err)
	}
	got, err := dec.Decode(u, view)
	if err != nil {
		return nil, fmt.Errorf("core: uplink decode for device %d: %w", k, err)
	}
	return got, nil
}

// reset discards device k's link state (both directions plus the
// broadcast shadow) so the next contact starts a fresh chain — the
// coordinator's half of re-admitting a reconnected worker, whose own
// endpoint starts fresh too.
func (l *commLinks) reset(k int) { l.state.Reset(k) }

// snapshot captures every per-device codec state (rounding-stream
// positions, error-feedback residuals, broadcast shadows) and the eval
// chain, so a checkpointed run can resume with bit-identical streams.
func (l *commLinks) snapshot() (*LinkSnapshot, error) {
	st, err := l.state.Snapshot()
	if err != nil {
		return nil, err
	}
	ev, err := l.eval.Snapshot()
	if err != nil {
		return nil, err
	}
	return &LinkSnapshot{State: st, Eval: ev}, nil
}

// restore rebuilds the link state from a snapshot taken by an equally
// configured run.
func (l *commLinks) restore(snap *LinkSnapshot) error {
	if err := l.state.Restore(snap.State); err != nil {
		return err
	}
	return l.eval.Restore(snap.Eval)
}
