package data

// Fleet is the lazy view of a federated population: it reports how many
// devices exist and what each device's training-set size is (the p_k =
// n_k/n weights of Equation 1 need only sizes), but materializes a
// device's actual examples only on demand. Drivers that touch a small
// cohort per round — the paper's regime, where K << N devices are
// active — can then hold per-round state that is O(cohort) while the
// population is 10^5–10^6.
//
// Shard must be safe for concurrent calls, two of one device included
// (parallel solvers materialize their own shards). Release declares the
// caller is done with a shard Shard returned; lazy implementations may
// recycle its storage, eager ones ignore it. After Release the shard
// must no longer be read.
type Fleet interface {
	// NumDevices returns the population size N.
	NumDevices() int
	// TrainSize returns n_k, device k's local training-set size,
	// without materializing the shard.
	TrainSize(device int) int
	// Shard materializes device k's local dataset.
	Shard(device int) *Shard
	// Release returns a shard obtained from Shard.
	Release(s *Shard)
}

// eagerFleet adapts a fully materialized Federated dataset to the Fleet
// interface: every shard already exists, so Shard is a slice lookup and
// Release is a no-op.
type eagerFleet struct{ fed *Federated }

// Fleet returns the eager Fleet view of f. Existing datasets keep
// working against the Fleet-based drivers through this adapter; only
// generators that want O(cohort) memory implement Fleet natively.
func (f *Federated) Fleet() Fleet { return eagerFleet{fed: f} }

func (e eagerFleet) NumDevices() int          { return len(e.fed.Shards) }
func (e eagerFleet) TrainSize(device int) int { return len(e.fed.Shards[device].Train) }
func (e eagerFleet) Shard(device int) *Shard  { return e.fed.Shards[device] }
func (e eagerFleet) Release(*Shard)           {}

// FleetWeights returns the normalized objective weights p_k = n_k/n for
// a fleet, computed from training sizes alone (no shards are
// materialized). For an eager fleet this matches Federated.Weights
// exactly.
func FleetWeights(fl Fleet) []float64 {
	n := fl.NumDevices()
	sizes := make([]int, n)
	total := 0
	for k := range sizes {
		sizes[k] = fl.TrainSize(k)
		total += sizes[k]
	}
	out := make([]float64, n)
	for k, s := range sizes {
		out[k] = float64(s) / float64(total)
	}
	return out
}
