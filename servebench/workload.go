package main

import (
	"fmt"

	"rwsync/internal/workload"
)

// Op kinds.  A stream entry holds the op kind in bits 32 and up and
// the key (map workloads) or record index (guard-hot) in the low 32
// bits.
const (
	opGet = iota
	opUpdate
	opGetOrCompute
	opDelete
	opRead
	opWrite
)

const keyMask = 1<<32 - 1

// streamLen is the length of each worker's op stream; a worker
// replays its stream from the start when it reaches the end.  2Mi
// entries per worker touch most of map-uniform-churn's 2Mi keys, so
// the replay does not shrink its working set into the cache.
const streamLen = 1 << 21

type opShare struct{ op, pct int }

// spec is one workload: the system under test, its key space and its
// op mix.
type spec struct {
	name    string
	guard   bool    // drives rwlock.Guard over a record table instead of rwmap.Map
	keys    int     // map key space, or guard record count; a power of two
	stripes int     // rwmap stripe count
	zipfS   float64 // Zipf exponent of key popularity; 0 draws keys uniformly
	mix     []opShare
	setups  int  // set-ups per end-to-end run; setup_s and heap_mb are their medians
	rounds  int  // instances the end-to-end run measures in turn, the last set-ups it made
	refs    bool // the traced run also drives the reference designs
}

// workloads are the benchmark's three traffic mixes.  README.md gives
// the reason for each.
var workloads = []*spec{
	{
		name: "map-zipf-read", keys: 1 << 16, stripes: 1024, zipfS: 1.07,
		mix:    []opShare{{opGet, 98}, {opUpdate, 2}},
		setups: 31, rounds: 8, refs: true,
	},
	{
		name: "map-uniform-churn", keys: 1 << 21, stripes: 1 << 20,
		mix:    []opShare{{opGet, 40}, {opUpdate, 40}, {opGetOrCompute, 15}, {opDelete, 5}},
		setups: 3, rounds: 1,
	},
	{
		name: "guard-hot", guard: true, keys: 1 << 16, zipfS: 1.07,
		mix:    []opShare{{opRead, 90}, {opWrite, 10}},
		setups: 31, rounds: 8, refs: true,
	},
}

func findWorkload(name string) (*spec, error) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// pick maps a percentile draw in [0,100) to an op kind.
func (sp *spec) pick(p uint64) uint64 {
	acc := 0
	for _, s := range sp.mix {
		acc += s.pct
		if p < uint64(acc) {
			return uint64(s.op)
		}
	}
	panic("workload mix does not sum to 100")
}

// recordSpread scatters guard-hot's Zipf ranks over the table (an odd
// multiplier is a bijection modulo a power of two), so the hottest
// records do not share cache lines the way adjacent ranks would.
const recordSpread = 0x9e3779b1

// streams returns one op stream per worker, a function of seed alone.
func (sp *spec) streams(seed int64, n int) [][]uint64 {
	var zt *workload.ZipfTable
	if sp.zipfS > 0 {
		zt = workload.NewZipfTable(sp.keys, sp.zipfS)
	}
	out := make([][]uint64, n)
	for w := range out {
		rng := splitmix(uint64(seed)<<8 | uint64(w))
		var zs *workload.ZipfSampler
		if zt != nil {
			zs = workload.NewZipfSampler(zt, int64(rng.next()))
		}
		s := make([]uint64, streamLen)
		for i := range s {
			var k uint64
			if zs != nil {
				k = zs.Next()
			} else {
				k = rng.next() % uint64(sp.keys)
			}
			if sp.guard {
				k = k * recordSpread & uint64(sp.keys-1)
			}
			s[i] = k | sp.pick(rng.next()%100)<<32
		}
		out[w] = s
	}
	return out
}

// splitmix is the splitmix64 generator (Steele, Lea & Flood).
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	x := uint64(*s)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
