package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"

	"rwsync/internal/workload"
	"rwsync/rwlock"
)

// ShardedLockNames is the default lock set of the sharded (serving
// tier) scenarios: each reader-fast-path protocol in its three grid
// builds — private table, shared arena, 16-byte slim — plus the
// runtime baseline.  The triples are what the bytes/lock column is
// about: same protocol, three footprints.
func ShardedLockNames() []string {
	return []string{
		"Bravo(MWSF)", "Bravo(MWSF)/shared", "SlimBravo",
		"MWSF/epoch", "MWSF/epoch/shared", "SlimEpoch",
		"sync.RWMutex",
	}
}

// ShardedScenarioNames returns the registered scenarios that sweep a
// stripe axis, sorted lexically — the listing for the CLI's "-stripes
// applies to no selected scenario" rejection.
func ShardedScenarioNames() []string {
	var names []string
	for _, name := range ScenarioNames() {
		if sc, ok := ScenarioByName(name); ok && len(sc.Stripes) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// measureBytesPerLock reports the marginal heap bytes per lock
// instance when n instances are built the way a stripe grid builds
// them: construct all n, then give each one warm read and write
// passage so lazily allocated state (Epoch's pool locals and stamp
// slots, Bravo's first drain) is charged to the lock that owns it.
// One build-and-passage happens before the window to warm shared
// machinery (the default arena, lazy globals), and GC is disabled
// across the window so the delta is exact allocation volume, not
// collector timing.
func measureBytesPerLock(build func() rwlock.RWLock, n int) float64 {
	if n < 1 {
		n = 1
	}
	w := build()
	rt := w.RLock()
	w.RUnlock(rt)
	wt := w.Lock()
	w.Unlock(wt)
	locks := make([]rwlock.RWLock, n)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range locks {
		locks[i] = build()
	}
	for _, l := range locks {
		rt := l.RLock()
		l.RUnlock(rt)
		wt := l.Lock()
		l.Unlock(wt)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
	runtime.KeepAlive(locks)
	runtime.KeepAlive(w)
	return per
}

// runShardedScenario sweeps striped maps: every (lock, stripes, s)
// cell is a fresh rwmap grid under workload.RunSharded, with the
// lock's bytes/instance measured once per (lock, stripes) pair — a
// standalone grid, built and released before the workload's own, so
// the number is the lock's marginal cost, not the map's.
func runShardedScenario(sc *Scenario, seed int64, metrics bool) ([]ScenarioPoint, error) {
	if len(sc.Locks) == 0 {
		sc.Locks = ShardedLockNames()
	}
	builders := NativeLocks()
	for _, name := range sc.Locks {
		if builders[name] == nil {
			return nil, fmt.Errorf("scenario %s: unknown lock %q (have %v)",
				sc.Name, name, SortedLockNames())
		}
	}
	if len(sc.Workers) == 0 {
		sc.Workers = []int{8}
	}
	for _, w := range sc.Workers {
		if w < 1 {
			return nil, fmt.Errorf("scenario %s: worker count %d (need >= 1)", sc.Name, w)
		}
	}
	for _, st := range sc.Stripes {
		if st < 1 {
			return nil, fmt.Errorf("scenario %s: stripe count %d (need >= 1)", sc.Name, st)
		}
	}
	fractions := sc.ReadFractions
	if len(fractions) == 0 {
		fractions = []float64{0.9}
	}
	skews := sc.ZipfS
	if len(skews) == 0 {
		skews = []float64{0}
	}
	var points []ScenarioPoint
	for _, name := range sc.Locks {
		build := builders[name]
		for _, stripes := range sc.Stripes {
			bpl := measureBytesPerLock(build, stripes)
			for _, s := range skews {
				for _, w := range sc.Workers {
					for _, f := range fractions {
						// Instrumented cells get a fresh counter block
						// shared by every stripe lock of the cell's
						// grid, so the block aggregates the whole map.
						// The bytes/lock measurement above keeps the
						// plain constructor: its warm passages must not
						// leak into the cell's counts.
						factory := build
						var cellStats *rwlock.LockStats
						if metrics {
							cellStats = new(rwlock.LockStats)
							factory = NativeLocksWith(rwlock.WithStats(cellStats))[name]
						}
						r := workload.RunSharded(workload.ShardedConfig{
							Workers:      w,
							ReadFraction: f,
							OpsPerWorker: sc.OpsPerWorker,
							Duration:     sc.Duration,
							Stripes:      stripes,
							Keys:         sc.Keys,
							ZipfS:        s,
							CSWork:       sc.CSWork,
							ThinkWork:    sc.ThinkWork,
							MixedOps:     sc.MixedOps,
							Seed:         seed,
							SampleEvery:  sc.SampleEvery,
							MeasureAge:   sc.MeasureAge,
							Yield:        sc.Yield,
							LockFactory:  factory,
						})
						p := ScenarioPoint{
							Lock:         name,
							Workers:      w,
							ReadFraction: f,
							Stripes:      stripes,
							ZipfS:        s,
							BytesPerLock: bpl,
							OpsPerSec:    r.Throughput(),
							ReadOps:      r.ReadOps,
							WriteOps:     r.WriteOps,
							HotReadOps:   r.HotReadOps,
							ReadWait:     r.ReadWaitNs.Snapshot(),
							ReadHold:     r.ReadHoldNs.Snapshot(),
							ReadTotal:    r.ReadTotalNs.Snapshot(),
							WriteWait:    r.WriteWaitNs.Snapshot(),
							WriteHold:    r.WriteHoldNs.Snapshot(),
							WriteTotal:   r.WriteTotalNs.Snapshot(),
							Age:          r.AgeNs.Snapshot(),
						}
						if cellStats != nil {
							snap := cellStats.Snapshot()
							if err := checkCellCounters(&snap, sc.Name, name, r.ReadOps, r.WriteOps, 0); err != nil {
								return nil, err
							}
							p.Counters = &snap
						}
						points = append(points, p)
					}
				}
			}
		}
	}
	return points, nil
}
