package workload

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rwsync/internal/stats"
	"rwsync/rwlock"
	"rwsync/rwmap"
)

// Cell is the protected per-key datum of the sharded scenarios: a
// counter plus the monotonic stamp of the write that produced it (the
// age probe's input).  Guarded by the key's stripe lock — plain
// fields, so -race runs double as an exclusion check on the grid.
type Cell struct {
	Value int64
	Stamp int64 // ns since run start, written inside the stripe's write CS
}

// ShardedConfig describes one serving-tier run: a striped map under
// Zipfian key traffic.
type ShardedConfig struct {
	// Workers is the number of goroutines issuing operations.
	Workers int
	// ReadFraction is the probability an op is a read.
	ReadFraction float64
	// OpsPerWorker is each worker's op budget; Duration > 0 overrides
	// it with a deadline (see Config.Duration for why).
	OpsPerWorker int
	Duration     time.Duration
	// Stripes is the map's stripe count (power of two; see rwmap).
	Stripes int
	// Keys is the key-space size ranks are drawn from; 0 defaults to
	// 16384.  Keys is independent of Stripes: a small key space over
	// many stripes measures per-stripe isolation, a large one over few
	// stripes measures stripe sharing.
	Keys int
	// ZipfS is the popularity exponent (0 = uniform; serving traffic
	// is classically s ≈ 1.07).  Rank 0 is the hot key.
	ZipfS float64
	// CSWork/ThinkWork shape the critical and remainder sections.
	CSWork    int
	ThinkWork int
	// MixedOps makes every 16th op heavy: 8x CSWork inside the
	// critical section — the mixed-op-size shape where occasional fat
	// ops ride the same stripe locks as the fast majority.
	MixedOps bool
	// Seed drives both the per-worker op mix and the Zipf streams.
	Seed int64
	// SampleEvery records every k-th op's latency (0 = workload
	// default).
	SampleEvery int
	// MeasureAge enables the hot-key read-view age probe: every write
	// stamps its cell, every sampled read of rank 0 reports how stale
	// the value it saw was.  Cheaper than Config.MeasureAge's global
	// probe — only the hot key's reads pay the clock read.
	MeasureAge bool
	// Yield yields after each op (see Config.Yield).
	Yield bool
	// LockFactory builds each stripe's lock; nil means rwmap's
	// default (SlimBravo on the shared reader table).
	LockFactory func() rwlock.RWLock
}

// ShardedResult aggregates a sharded run.  The embedded Result's
// histograms carry per-class wait/hold/total exactly as the flat
// workload's do; HotReadOps counts reads that landed on rank 0 (the
// skew made visible), and AgeNs — when the probe ran — is the hot
// key's read-view age distribution.
type ShardedResult struct {
	Result
	HotReadOps int64
}

// RunSharded executes the serving-tier workload against a fresh
// striped map and returns aggregate results.
func RunSharded(cfg ShardedConfig) *ShardedResult {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.OpsPerWorker <= 0 {
		cfg.OpsPerWorker = 1000
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	if cfg.Stripes <= 0 {
		cfg.Stripes = 1
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 16384
	}

	mopts := []rwmap.Option{rwmap.WithStripes(cfg.Stripes)}
	if cfg.LockFactory != nil {
		mopts = append(mopts, rwmap.WithLockFactory(cfg.LockFactory))
	}
	m := rwmap.New[uint64, Cell](mopts...)

	// One shared CDF table (read-only), one sampler per worker.
	ztbl := NewZipfTable(cfg.Keys, cfg.ZipfS)

	var (
		readOps    atomic.Int64
		writeOps   atomic.Int64
		hotReadOps atomic.Int64
		deadline   atomic.Bool
	)
	hists := make([]*workerHists, cfg.Workers)
	for i := range hists {
		hists[i] = new(workerHists)
	}
	if cfg.Duration > 0 {
		timer := time.AfterFunc(cfg.Duration, func() { deadline.Store(true) })
		defer timer.Stop()
	}

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
			zipf := NewZipfSampler(ztbl, cfg.Seed+int64(id)*104729+1)
			var sink int64
			h := hists[id]
			phase := int(((cfg.Seed+int64(id)*7919)%int64(cfg.SampleEvery) +
				int64(cfg.SampleEvery)) % int64(cfg.SampleEvery))

			// The write critical section, hoisted so the closure is
			// built once per worker; per-op state flows through the
			// captured locals (the same pattern as the flat workload's
			// writeCS).  It runs inside the stripe's write CS — on a
			// combining stripe lock possibly on the combiner's
			// goroutine — so the acquire stamp is taken inside and read
			// back after Update returns.
			var wSample bool
			var wAcq time.Time
			var wWork int
			updateCS := func(v Cell, ok bool) (Cell, bool) {
				if wSample {
					wAcq = time.Now()
				}
				v.Value++
				spin(wWork, &sink)
				v.Stamp = int64(time.Since(start))
				return v, true
			}
			// The read section mirror: acquire stamp, observed stamp.
			var rSample bool
			var rAcq time.Time
			var rStamp int64
			var rWork int
			readCS := func(v Cell, ok bool) {
				if rSample {
					rAcq = time.Now()
				}
				_ = v.Value
				rStamp = v.Stamp
				spin(rWork, &sink)
			}

			for i := 0; ; i++ {
				if cfg.Duration > 0 {
					if deadline.Load() {
						break
					}
				} else if i >= cfg.OpsPerWorker {
					break
				}
				k := zipf.Next()
				write := rng.Float64() >= cfg.ReadFraction
				sample := (i+phase)%cfg.SampleEvery == 0
				work := cfg.CSWork
				if cfg.MixedOps && i%16 == 0 {
					work *= 8
				}
				var t0 time.Time
				if sample {
					t0 = time.Now()
				}
				if write {
					wSample, wWork = sample, work
					m.Update(k, updateCS)
					writeOps.Add(1)
					if sample {
						tEnd := time.Now()
						h.writeWait.Record(wAcq.Sub(t0).Nanoseconds())
						h.writeHold.Record(tEnd.Sub(wAcq).Nanoseconds())
						h.writeTotal.Record(tEnd.Sub(t0).Nanoseconds())
					}
				} else {
					rSample, rWork, rStamp = sample, work, 0
					m.Read(k, readCS)
					readOps.Add(1)
					if k == 0 {
						hotReadOps.Add(1)
					}
					if sample {
						tEnd := time.Now()
						h.readWait.Record(rAcq.Sub(t0).Nanoseconds())
						h.readHold.Record(tEnd.Sub(rAcq).Nanoseconds())
						h.readTotal.Record(tEnd.Sub(t0).Nanoseconds())
						if cfg.MeasureAge && k == 0 && rStamp != 0 {
							if age := int64(time.Since(start)) - rStamp; age >= 0 {
								h.age.Record(age)
							}
						}
					}
				}
				spin(cfg.ThinkWork, &sink)
				if cfg.Yield {
					runtime.Gosched()
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &ShardedResult{
		Result: Result{
			Elapsed:      elapsed,
			ReadOps:      readOps.Load(),
			WriteOps:     writeOps.Load(),
			ReadWaitNs:   new(stats.Histogram),
			ReadHoldNs:   new(stats.Histogram),
			ReadTotalNs:  new(stats.Histogram),
			WriteWaitNs:  new(stats.Histogram),
			WriteHoldNs:  new(stats.Histogram),
			WriteTotalNs: new(stats.Histogram),
		},
		HotReadOps: hotReadOps.Load(),
	}
	if cfg.MeasureAge {
		res.AgeNs = new(stats.Histogram)
	}
	for _, h := range hists {
		res.ReadWaitNs.Merge(&h.readWait)
		res.ReadHoldNs.Merge(&h.readHold)
		res.ReadTotalNs.Merge(&h.readTotal)
		res.WriteWaitNs.Merge(&h.writeWait)
		res.WriteHoldNs.Merge(&h.writeHold)
		res.WriteTotalNs.Merge(&h.writeTotal)
		if res.AgeNs != nil {
			res.AgeNs.Merge(&h.age)
		}
	}
	res.ReadLatNs = res.ReadTotalNs.Summary()
	res.WriteLatNs = res.WriteTotalNs.Summary()
	return res
}

// HotReadThroughput returns hot-key (rank 0) reads per second.
func (r *ShardedResult) HotReadThroughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.HotReadOps) / r.Elapsed.Seconds()
}
