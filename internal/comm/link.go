package comm

import (
	"sync"

	"fedprox/internal/tensor"
)

// LinkState is one endpoint's per-device codec state: lazily created
// downlink/uplink codec instances plus the last decoded broadcast per
// device, adopted rather than copied (SetPrev). The simulator's network
// model and both fednet endpoints (coordinator and worker) share this
// type, so the three state machines that must stay in lockstep for
// decoding to work cannot drift apart.
//
// LinkState is safe for concurrent use by goroutines handling distinct
// devices: the internal maps are mutex-guarded, while the per-device
// Codec instances themselves remain single-owner (the coordinator's
// aggregation loop and each worker's per-device request handler — at
// most one request is outstanding per device at any time).
type LinkState struct {
	downSpec, upSpec Spec
	trackPrev        bool

	mu       sync.Mutex
	down, up map[int]Codec
	prev     map[int][]float64
}

// NewLinkState validates the per-direction specs and returns empty state.
func NewLinkState(down, up Spec) (*LinkState, error) {
	if err := down.Validate(); err != nil {
		return nil, err
	}
	if err := up.Validate(); err != nil {
		return nil, err
	}
	return &LinkState{
		downSpec: down,
		upSpec:   up,
		// Only prev-relative downlink codecs need the broadcast shadow;
		// for raw/qsgd downlinks, per-device copies of the full model
		// would be pure waste.
		trackPrev: down.UsesPrev(),
		down:      make(map[int]Codec),
		up:        make(map[int]Codec),
		prev:      make(map[int][]float64),
	}, nil
}

// Link returns the device's codec pair, creating both directions on
// first contact. The returned instances are per-device single-owner
// state: callers must not drive the same device's codecs from two
// goroutines at once, but distinct devices may proceed concurrently.
func (l *LinkState) Link(device int) (down, up Codec, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	down = l.down[device]
	if down == nil {
		if down, err = l.downSpec.ForDevice(Downlink, device); err != nil {
			return nil, nil, err
		}
		if up, err = l.upSpec.ForDevice(Uplink, device); err != nil {
			return nil, nil, err
		}
		l.down[device], l.up[device] = down, up
	}
	return l.down[device], l.up[device], nil
}

// Prev returns the last decoded broadcast delivered on the device's
// downlink (nil before first contact, or when the downlink codec does
// not interpret payloads relative to it).
func (l *LinkState) Prev(device int) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.prev[device]
}

// SetPrev records the decoded broadcast after a downlink transfer. Both
// endpoints of a link must call it with the same decoded value to stay
// in lockstep. A link that keeps a shadow adopts view as it is — it must
// be a pooled vector (tensor.GetVec) nothing writes or recycles after
// this call — recycles the shadow it replaces, and reports true; a
// caller may still read view until the device's next broadcast, which is
// the only thing that replaces it. A downlink that does not chain
// (Spec.UsesPrev) keeps no shadow and reports false: view stays the
// caller's. On an f32 link the decoded value is float32-representable,
// so this float64 shadow holds the link's f32 chain exactly.
func (l *LinkState) SetPrev(device int, view []float64) bool {
	if !l.trackPrev {
		return false
	}
	l.mu.Lock()
	old := l.prev[device]
	l.prev[device] = view
	l.mu.Unlock()
	tensor.PutVec(old)
	return true
}

// EvalLink is the shared evaluation-broadcast link: a single chained
// codec stream (direction Eval, device 0) that ships the global model to
// every evaluator. The coordinator (or simulator) encodes each eval
// broadcast once with Broadcast; every worker decodes it with Receive.
// Both sides advance the same prev chain, so lossy codecs stay in
// lockstep exactly as the training links do.
type EvalLink struct {
	mu        sync.Mutex
	codec     Codec
	trackPrev bool
	prev      []float64
}

// NewEvalLink builds the eval link for the deployment's downlink spec.
// Evaluation always happens at full width: an f32 downlink spec's
// precision is stripped here (on both endpoints, so the chain stays in
// lockstep), which is what lets an f32 run's loss be measured in the
// same arithmetic as its f64 baseline.
func NewEvalLink(down Spec) (*EvalLink, error) {
	down.Precision = tensor.F64
	c, err := down.ForDevice(Eval, 0)
	if err != nil {
		return nil, err
	}
	return &EvalLink{codec: c, trackPrev: down.UsesPrev()}, nil
}

// Broadcast encodes w against the link's prev chain, decodes it back as
// every receiver will, advances the chain, and returns the encoded
// update (send it to each evaluator verbatim) plus the decoded view the
// evaluation happens at.
func (l *EvalLink) Broadcast(w []float64) (*Update, []float64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	u := l.codec.Encode(w, l.prev)
	view, err := l.codec.Decode(u, l.prev)
	if err != nil {
		return nil, nil, err
	}
	if l.trackPrev {
		l.prev = view
	}
	return u, view, nil
}

// Receive decodes one eval broadcast at the receiving endpoint and
// advances its prev chain. Receivers must decode every broadcast in
// order — the chain is shared state.
func (l *EvalLink) Receive(u *Update) ([]float64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	view, err := l.codec.Decode(u, l.prev)
	if err != nil {
		return nil, err
	}
	if l.trackPrev {
		l.prev = view
	}
	return view, nil
}
