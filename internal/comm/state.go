package comm

import (
	"fmt"

	"fedprox/internal/frand"
)

// This file makes codec link state checkpointable. A Codec instance owns
// exactly two kinds of mutable state: a stochastic-rounding stream
// position (qsgd family) and an error-feedback residual (topk uplinks).
// CodecState captures both; LinkState.Snapshot/Restore and
// EvalLink.Snapshot/Restore lift the capture to a whole endpoint —
// including the per-device broadcast shadows — so a run persisted
// mid-stream resumes with bit-identical encodings.

// CodecState is the serializable state of one codec instance.
type CodecState struct {
	// RNG is the rounding stream position (HasRNG marks it meaningful).
	RNG    uint64
	HasRNG bool
	// Residual is the error-feedback residual (nil when absent).
	Residual []float64
}

// snapshotCodec captures a codec instance's mutable state. Stateless
// codecs (raw, delta) snapshot to the zero CodecState.
func snapshotCodec(c Codec) (CodecState, error) {
	switch v := c.(type) {
	case *topkCodec:
		var res []float64
		if v.residual != nil {
			res = append([]float64(nil), v.residual...)
		}
		return CodecState{Residual: res}, nil
	case interface{ rounding() *frand.Source }: // wire[T], either width
		if rng := v.rounding(); rng != nil {
			return CodecState{RNG: rng.State(), HasRNG: true}, nil
		}
		return CodecState{}, nil
	default:
		return CodecState{}, fmt.Errorf("comm: cannot snapshot codec %q", c.Name())
	}
}

// restoreCodec replays a snapshot into a freshly constructed instance of
// the same codec.
func restoreCodec(c Codec, st CodecState) error {
	switch v := c.(type) {
	case *topkCodec:
		if st.Residual == nil {
			v.residual = nil
		} else {
			v.residual = append([]float64(nil), st.Residual...)
		}
		return nil
	case interface{ rounding() *frand.Source }:
		rng := v.rounding()
		if rng == nil {
			return nil
		}
		if !st.HasRNG {
			return fmt.Errorf("comm: qsgd snapshot carries no rounding stream")
		}
		*rng = *frand.New(st.RNG)
		return nil
	default:
		return fmt.Errorf("comm: cannot restore codec %q", c.Name())
	}
}

// DeviceLinkState is one device's endpoint state in a LinkSnapshot.
type DeviceLinkState struct {
	Down, Up CodecState
	Prev     []float64
}

// LinkSnapshot is the serializable state of a LinkState endpoint.
type LinkSnapshot struct {
	Devices map[int]DeviceLinkState
}

// Snapshot captures the state of every contacted device's link.
func (l *LinkState) Snapshot() (LinkSnapshot, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	snap := LinkSnapshot{Devices: make(map[int]DeviceLinkState, len(l.down))}
	for dev, down := range l.down {
		ds, err := snapshotCodec(down)
		if err != nil {
			return LinkSnapshot{}, err
		}
		us, err := snapshotCodec(l.up[dev])
		if err != nil {
			return LinkSnapshot{}, err
		}
		var prev []float64
		if p := l.prev[dev]; p != nil {
			prev = append([]float64(nil), p...)
		}
		snap.Devices[dev] = DeviceLinkState{Down: ds, Up: us, Prev: prev}
	}
	return snap, nil
}

// Restore rebuilds per-device codec instances from a snapshot taken by
// an endpoint with the same specs, discarding any current state.
func (l *LinkState) Restore(snap LinkSnapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.down = make(map[int]Codec, len(snap.Devices))
	l.up = make(map[int]Codec, len(snap.Devices))
	l.prev = make(map[int][]float64, len(snap.Devices))
	for dev, st := range snap.Devices {
		down, err := l.downSpec.ForDevice(Downlink, dev)
		if err != nil {
			return err
		}
		up, err := l.upSpec.ForDevice(Uplink, dev)
		if err != nil {
			return err
		}
		if err := restoreCodec(down, st.Down); err != nil {
			return err
		}
		if err := restoreCodec(up, st.Up); err != nil {
			return err
		}
		l.down[dev], l.up[dev] = down, up
		if l.trackPrev && st.Prev != nil {
			l.prev[dev] = append([]float64(nil), st.Prev...)
		}
	}
	return nil
}

// Reset discards one device's link state entirely: the next Link call
// creates fresh codec instances with an empty chain, mirroring a peer
// endpoint that reconnected from scratch.
func (l *LinkState) Reset(device int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.down, device)
	delete(l.up, device)
	delete(l.prev, device)
}

// EvalLinkSnapshot is the serializable state of a shared eval link.
type EvalLinkSnapshot struct {
	Codec CodecState
	Prev  []float64
}

// Snapshot captures the eval link's codec state and chain base.
func (l *EvalLink) Snapshot() (EvalLinkSnapshot, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cs, err := snapshotCodec(l.codec)
	if err != nil {
		return EvalLinkSnapshot{}, err
	}
	var prev []float64
	if l.prev != nil {
		prev = append([]float64(nil), l.prev...)
	}
	return EvalLinkSnapshot{Codec: cs, Prev: prev}, nil
}

// Restore replays a snapshot into this eval link.
func (l *EvalLink) Restore(snap EvalLinkSnapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := restoreCodec(l.codec, snap.Codec); err != nil {
		return err
	}
	l.prev = nil
	if l.trackPrev && snap.Prev != nil {
		l.prev = append([]float64(nil), snap.Prev...)
	}
	return nil
}

// PrevView returns the link's current chain base (the last decoded
// broadcast), or nil on a chain-free codec or before the first
// broadcast.
func (l *EvalLink) PrevView() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.prev == nil {
		return nil
	}
	return append([]float64(nil), l.prev...)
}

// SeedPrev installs a chain base received from the peer endpoint — how a
// re-admitted worker joins an eval chain already in progress.
func (l *EvalLink) SeedPrev(prev []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.trackPrev && prev != nil {
		l.prev = append([]float64(nil), prev...)
	}
}
