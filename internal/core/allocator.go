package core

import "fmt"

// AllocPolicy selects how reservation station entries are assigned to
// die in the entry-partitioned 3D scheduler of Section 3.4.
type AllocPolicy uint8

// Scheduler allocation policies.
const (
	// AllocHerded is the paper's policy: fill the top die first, then
	// the die next closest to the heat sink, and so on, keeping active
	// entries near the heat sink.
	AllocHerded AllocPolicy = iota
	// AllocRoundRobin spreads entries evenly across the die — the
	// ablation baseline that ignores thermals.
	AllocRoundRobin
)

// String names the policy.
func (p AllocPolicy) String() string {
	switch p {
	case AllocHerded:
		return "herded"
	case AllocRoundRobin:
		return "round-robin"
	}
	return "unknown"
}

// HerdingAllocator manages the entry-partitioned instruction scheduler:
// one quarter of the RS entries per die, with a thermally aware
// allocation policy and per-die tag broadcast gating (a die with no
// occupied entries does not receive the broadcast).
type HerdingAllocator struct {
	policy     AllocPolicy
	perDie     int
	occupied   [NumDies]int
	slots      [NumDies][]bool
	rrNext     int
	allocs     uint64
	allocsByD  [NumDies]uint64
	broadcasts uint64
	// broadcastDies counts die-broadcasts delivered; gated die are not
	// counted.
	broadcastDies uint64
	activity      DieActivity
	occupancySum  [NumDies]uint64
	occupancyObs  uint64
}

// NewHerdingAllocator builds an allocator for a scheduler with the given
// total number of RS entries, split evenly across the four die.
func NewHerdingAllocator(totalEntries int, policy AllocPolicy) *HerdingAllocator {
	if totalEntries <= 0 || totalEntries%NumDies != 0 {
		panic(fmt.Sprintf("core: RS entries (%d) must be a positive multiple of %d", totalEntries, NumDies))
	}
	a := &HerdingAllocator{perDie: totalEntries / NumDies}
	for d := range a.slots {
		a.slots[d] = make([]bool, a.perDie)
	}
	a.Reset(policy)
	return a
}

// Reset frees every entry, zeroes the statistics and sets the policy:
// the state NewHerdingAllocator builds. The policy is a property of the
// machine, not of the storage, so a reused allocator takes its new
// machine's.
func (a *HerdingAllocator) Reset(policy AllocPolicy) {
	*a = HerdingAllocator{policy: policy, perDie: a.perDie, slots: a.slots}
	for _, s := range a.slots {
		clear(s)
	}
}

// Capacity returns the total number of RS entries.
func (a *HerdingAllocator) Capacity() int { return a.perDie * NumDies }

// Free returns the number of unoccupied entries.
func (a *HerdingAllocator) Free() int {
	free := a.Capacity()
	for _, o := range a.occupied {
		free -= o
	}
	return free
}

// Entry identifies one reservation station slot by die and index.
type Entry struct {
	Die  int
	Slot int
}

// Allocate claims a free RS entry according to the policy. ok is false
// when the scheduler is full.
func (a *HerdingAllocator) Allocate() (e Entry, ok bool) {
	switch a.policy {
	case AllocHerded:
		for d := 0; d < NumDies; d++ {
			if a.occupied[d] < a.perDie {
				return a.claim(d), true
			}
		}
	case AllocRoundRobin:
		for i := 0; i < NumDies; i++ {
			d := (a.rrNext + i) % NumDies
			if a.occupied[d] < a.perDie {
				a.rrNext = (d + 1) % NumDies
				return a.claim(d), true
			}
		}
	}
	return Entry{}, false
}

func (a *HerdingAllocator) claim(d int) Entry {
	for s, used := range a.slots[d] {
		if !used {
			a.slots[d][s] = true
			a.occupied[d]++
			a.allocs++
			a.allocsByD[d]++
			return Entry{Die: d, Slot: s}
		}
	}
	panic("core: claim on full die") // unreachable: caller checked occupancy
}

// Release frees an entry when its instruction issues.
func (a *HerdingAllocator) Release(e Entry) {
	if e.Die < 0 || e.Die >= NumDies || e.Slot < 0 || e.Slot >= a.perDie {
		panic(fmt.Sprintf("core: release of invalid entry %+v", e))
	}
	if !a.slots[e.Die][e.Slot] {
		panic(fmt.Sprintf("core: double release of entry %+v", e))
	}
	a.slots[e.Die][e.Slot] = false
	a.occupied[e.Die]--
}

// Broadcast models one destination-tag broadcast through the wakeup
// logic. Die with no occupied entries gate the broadcast (Section 3.4),
// saving the associated switching energy.
func (a *HerdingAllocator) Broadcast() (diesDriven int) {
	a.broadcasts++
	for d := 0; d < NumDies; d++ {
		if a.occupied[d] > 0 {
			diesDriven++
			a.activity.Words[d]++
			a.broadcastDies++
		}
	}
	return diesDriven
}

// ObserveOccupancy samples per-die occupancy (call once per simulated
// cycle) for the thermal-herding effectiveness metrics.
func (a *HerdingAllocator) ObserveOccupancy() { a.ObserveOccupancyN(1) }

// ObserveOccupancyN records k samples of the current per-die occupancy:
// the same as k calls to ObserveOccupancy, for a span of cycles in which
// the occupancy cannot change.
func (a *HerdingAllocator) ObserveOccupancyN(k uint64) {
	a.occupancyObs += k
	for d := 0; d < NumDies; d++ {
		a.occupancySum[d] += k * uint64(a.occupied[d])
	}
}

// ResetStats zeroes counters while preserving current occupancy.
func (a *HerdingAllocator) ResetStats() {
	a.allocs = 0
	a.allocsByD = [NumDies]uint64{}
	a.broadcasts, a.broadcastDies = 0, 0
	a.activity = DieActivity{}
	a.occupancySum = [NumDies]uint64{}
	a.occupancyObs = 0
}

// Occupied returns the current number of occupied entries on die d.
func (a *HerdingAllocator) Occupied(d int) int { return a.occupied[d] }

// Activity returns per-die broadcast activity.
func (a *HerdingAllocator) Activity() DieActivity { return a.activity }

// TopDieAllocShare returns the fraction of allocations that landed on
// the top die — the herding effectiveness measure for the allocator
// ablation.
func (a *HerdingAllocator) TopDieAllocShare() float64 {
	if a.allocs == 0 {
		return 0
	}
	return float64(a.allocsByD[TopDie]) / float64(a.allocs)
}

// MeanBroadcastDies returns the average number of die each tag broadcast
// had to drive (4.0 means gating never helped).
func (a *HerdingAllocator) MeanBroadcastDies() float64 {
	if a.broadcasts == 0 {
		return 0
	}
	return float64(a.broadcastDies) / float64(a.broadcasts)
}

// MeanOccupancy returns the average occupancy of die d over the sampled
// cycles.
func (a *HerdingAllocator) MeanOccupancy(d int) float64 {
	if a.occupancyObs == 0 {
		return 0
	}
	return float64(a.occupancySum[d]) / float64(a.occupancyObs)
}
