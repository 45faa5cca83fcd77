// Package tier describes hierarchical aggregation topologies: a root
// coordinator fans into tiers of edge aggregators, which fan into the
// device fleet. The package holds the pure topology math — tree shape,
// cohort sizes, device partitioning, and the latency model pricing the
// aggregator-to-aggregator network legs — and nothing else; the tiered
// drivers (core.RunTiered, the fednet process tree) consume it.
//
// A Topology is parameterized by the per-window participation K (the
// run's ClientsPerRound) rather than the population: every aggregator
// contacts FanOut of its children per window except the root, which
// contacts all K/FanOut^Depth of its tier-1 children, so the total
// device cohort stays exactly K and the root's per-window ingress
// shrinks from K device replies to K/FanOut edge replies — the
// hierarchy's bandwidth payoff.
package tier

import (
	"fmt"

	"fedprox/internal/frand"
	"fedprox/internal/vtime"
)

// Topology is a uniform aggregation tree between the root and the
// device fleet. The zero value (and any FanOut ≤ 1 or Depth ≤ 0) is the
// flat topology: no aggregators, devices fan directly into the root.
type Topology struct {
	// FanOut F is how many children each aggregator contacts per
	// window: leaf aggregators select F devices from the devices they
	// own; interior aggregators contact all F of their children. ≤ 1
	// disables tiering.
	FanOut int
	// Depth is the number of aggregator tiers between the root and the
	// devices (1 = root → edges → devices). ≤ 0 disables tiering.
	Depth int
	// Model prices the aggregator-leg transfers (root ↔ edge, edge ↔
	// edge) on encoded bytes, exactly as Config.VTime.Model prices the
	// device legs. Nil makes aggregator legs instantaneous; it is only
	// consulted on virtual-time runs.
	Model vtime.LatencyModel
}

// Enabled reports whether the topology actually interposes aggregators.
func (t Topology) Enabled() bool { return t.FanOut > 1 && t.Depth > 0 }

// width returns FanOut^Depth, the device cohort one root-child subtree
// covers, and false on overflow or when tiering is disabled.
func (t Topology) width() (int, bool) {
	if !t.Enabled() {
		return 0, false
	}
	w := 1
	for i := 0; i < t.Depth; i++ {
		if w > 1<<30/t.FanOut {
			return 0, false
		}
		w *= t.FanOut
	}
	return w, true
}

// Validate reports the first configuration error for a run contacting
// clientsPerRound devices per window over numDevices devices, or nil.
// The disabled (flat) topology is always valid.
func (t Topology) Validate(clientsPerRound, numDevices int) error {
	if !t.Enabled() {
		if t.FanOut < 0 || t.Depth < 0 {
			return fmt.Errorf("tier: FanOut and Depth must be non-negative, got %d/%d", t.FanOut, t.Depth)
		}
		return nil
	}
	w, ok := t.width()
	if !ok {
		return fmt.Errorf("tier: FanOut^Depth overflows (%d^%d)", t.FanOut, t.Depth)
	}
	if clientsPerRound%w != 0 {
		return fmt.Errorf("tier: FanOut^Depth (%d^%d = %d) must divide ClientsPerRound %d",
			t.FanOut, t.Depth, w, clientsPerRound)
	}
	if numDevices < clientsPerRound {
		return fmt.Errorf("tier: %d devices cannot host a %d-device cohort", numDevices, clientsPerRound)
	}
	return nil
}

// RootCohort returns how many tier-1 children the root contacts per
// window: K/FanOut^Depth. Call only on a validated, enabled topology.
func (t Topology) RootCohort(clientsPerRound int) int {
	w, _ := t.width()
	return clientsPerRound / w
}

// Leaves returns the number of leaf aggregators, K/FanOut — independent
// of depth, since each interior tier multiplies the node count by
// FanOut while the root cohort divides it by the same factor. Call only
// on a validated, enabled topology.
func (t Topology) Leaves(clientsPerRound int) int {
	return clientsPerRound / t.FanOut
}

// Suffix is the History-label marker of a tiered run.
func (t Topology) Suffix() string {
	if !t.Enabled() {
		return ""
	}
	return fmt.Sprintf(" [tier f=%d d=%d]", t.FanOut, t.Depth)
}

// Partition returns the half-open global device range [lo, hi) owned by
// leaf aggregator i of parts, splitting n devices contiguously and as
// evenly as possible (the first n%parts leaves own one extra device).
func Partition(n, parts, i int) (lo, hi int) {
	base, rem := n/parts, n%parts
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// NodeSeed derives aggregator uid's seed from the run seed: the node's
// index under the "tier" split, so edge selection and straggler streams
// are independent of each other and of the root's (which keeps the run
// seed itself). Uids count the tree depth-first from the root's 0, so
// edge i of a depth-1 tree — `fedserver -tier edge -index i` — is node
// i+1. core.RunTiered and the process tree both seed through here, which
// is what makes a deployed tree the simulated one.
func NodeSeed(seed uint64, uid int) uint64 {
	return frand.New(seed).Split("tier").SplitIndex(uid).State()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
