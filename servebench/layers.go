package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"rwsync/internal/ccsim"
	"rwsync/internal/core"
	"rwsync/rwlock"
	"rwsync/rwmap"
)

const (
	// traceEvery spans one op in 64 by stream position: over a traced
	// phase of the fastest workload that stays within traceCap.
	traceEvery = 64
	// traceCap bounds each traced client's span buffers.
	traceCap = 1 << 20
)

// mapTrace is one traced client's spans and counts.
type mapTrace struct {
	sel     []int32 // Map.LockOf(k)
	rprobe  []int32 // stripe TryRLock (RLock when busy) + RUnlock
	wprobe  []int32 // stripe TryLock (Lock when busy) + Unlock
	getSelf []int32 // Get span minus the select and probe spans
	updSelf []int32 // Update span minus the select and probe spans

	gets, getHits, gocs, gocLoads  int
	rprobes, rbusy, wprobes, wbusy int
	biasSeen, biasArmed            int
}

func newMapTrace() mapTrace {
	buf := func() []int32 { return make([]int32, 0, traceCap) }
	return mapTrace{sel: buf(), rprobe: buf(), wprobe: buf(), getSelf: buf(), updSelf: buf()}
}

// doTraced performs e.  On one op in traceEvery of a measured slice
// it first times the stripe select and a probe passage of the stripe
// lock, then the op itself.
func (c *mapClient) doTraced(e uint64, s sampling) {
	op := e >> 32
	if s == 0 || c.pos%traceEvery != 0 {
		c.tally(op, c.op(e, 0))
		return
	}
	write := op == opUpdate || op == opDelete
	k := e & keyMask
	t0 := now()
	l := c.in.rw.LockOf(k)
	t1 := now()
	if b, ok := l.(interface{ ReadBiased() bool }); ok && !write {
		c.tr.biasSeen++
		if b.ReadBiased() {
			c.tr.biasArmed++
		}
	}
	t2 := now()
	c.probe(l, write)
	t3 := now()
	found := c.op(e, 0)
	t4 := now()
	c.tally(op, found)

	// Each span loses the one clock read it includes.
	clk := c.in.clock
	sel, probe := t1-t0-clk, t3-t2-clk
	self := t4 - t3 - clk - sel - probe
	c.sample(&c.tr.sel, sel)
	switch op {
	case opGet:
		c.sample(&c.tr.rprobe, probe)
		c.sample(&c.tr.getSelf, self)
	case opGetOrCompute:
		c.sample(&c.tr.rprobe, probe)
	case opUpdate:
		c.sample(&c.tr.wprobe, probe)
		c.sample(&c.tr.updSelf, self)
	case opDelete:
		c.sample(&c.tr.wprobe, probe)
	}
}

func (c *mapClient) tally(op uint64, found bool) {
	switch op {
	case opGet:
		c.tr.gets++
		if found {
			c.tr.getHits++
		}
	case opGetOrCompute:
		c.tr.gocs++
		if found {
			c.tr.gocLoads++
		}
	}
}

// probe runs one passage of the stripe lock: a Try acquisition, and
// the blocking one when the Try reports the lock busy.
func (c *mapClient) probe(l rwlock.RWLock, write bool) {
	tl, try := l.(rwlock.TryRWLock)
	if write {
		if try {
			c.tr.wprobes++
			if t, ok := tl.TryLock(); ok {
				tl.Unlock(t)
				return
			}
			c.tr.wbusy++
		}
		t := l.Lock()
		l.Unlock(t)
		return
	}
	if try {
		c.tr.rprobes++
		if t, ok := tl.TryRLock(); ok {
			tl.RUnlock(t)
			return
		}
		c.tr.rbusy++
	}
	t := l.RLock()
	l.RUnlock(t)
}

// layerRun measures the per-layer metrics of sp: an untraced and a
// traced phase of the default build (their throughputs give the
// tracing overhead), the reference designs, the stripe footprint,
// and the uncontended ladder.  Each phase measures phaseDur.
func layerRun(sp *spec, streams [][]uint64, phaseDur time.Duration, out *report) {
	n := max(1, int(phaseDur/sliceDur))

	base := runPhase(newDefault(sp), streams, n, false)
	out.add(base)

	var st rwlock.LockStats
	var traced phaseResult
	if sp.guard {
		traced = runPhase(newGuard(sp, rwlock.NewMWSF(rwlock.WithStats(&st))), streams, n, true)
		mwsfMetrics(out, st.Snapshot())
	} else {
		in := newRWMap(sp)
		in.traced = true
		in.clock = clockRead()
		out.extra["clock_read_ns"] = float64(in.clock)
		traced = runPhase(in, streams, n, true)
		mapLayerMetrics(out, in)
		out.set("rwmap.heap_bytes_per_stripe", stripeBytes(sp), 1)
	}
	out.add(traced)
	tb, tt := throughput(base.slices), throughput(traced.slices)
	out.set("trace_overhead_frac", (tt-tb)/tb, len(traced.slices))

	if sp.refs {
		if sp.guard {
			recs := newRecords(sp)
			r := runPhase(&guardInstance{sp: sp, t: &rwmutexTable{t: recs}, recs: recs}, streams, n, false)
			out.add(r)
			out.set("ref.rwmutex.throughput_ops_s", throughput(r.slices), len(r.slices))
		} else {
			r := runPhase(newMapInstance(sp, newMutexMap()), streams, n, false)
			out.add(r)
			out.set("ref.rwmutex.throughput_ops_s", throughput(r.slices), len(r.slices))
			r = runPhase(newMapInstance(sp, &syncMap{}), streams, n, false)
			out.add(r)
			out.set("ref.syncmap.throughput_ops_s", throughput(r.slices), len(r.slices))
		}
	}

	ladder(out)
	if err := rmrCounts(out); err != nil {
		out.fail("simulator: %v", err)
	}

	if sp.guard {
		for _, m := range perLayer {
			if strings.HasPrefix(m.name, "rwmap.") || strings.HasPrefix(m.name, "rwlock.stripe.") {
				out.absent[m.name] = "guard-hot drives rwlock.Guard; no rwmap layer runs"
			}
		}
	} else {
		for _, m := range perLayer {
			if strings.HasPrefix(m.name, "rwlock.mwsf.") {
				out.absent[m.name] = "the map stripes run SlimBravo, which has no stats seam; MWSF serves guard-hot"
			}
		}
	}
	if !sp.refs {
		out.absent["ref.rwmutex.throughput_ops_s"] = "reference rows run on map-zipf-read and guard-hot"
	}
	if !sp.refs || sp.guard {
		out.absent["ref.syncmap.throughput_ops_s"] = "sync.Map runs on map-zipf-read only"
	}
}

func mapLayerMetrics(out *report, in *mapInstance) {
	var t mapTrace
	for _, c := range in.clients {
		ct := &c.tr
		t.sel = append(t.sel, ct.sel...)
		t.rprobe = append(t.rprobe, ct.rprobe...)
		t.wprobe = append(t.wprobe, ct.wprobe...)
		t.getSelf = append(t.getSelf, ct.getSelf...)
		t.updSelf = append(t.updSelf, ct.updSelf...)
		t.gets += ct.gets
		t.getHits += ct.getHits
		t.gocs += ct.gocs
		t.gocLoads += ct.gocLoads
		t.rprobes += ct.rprobes
		t.rbusy += ct.rbusy
		t.wprobes += ct.wprobes
		t.wbusy += ct.wbusy
		t.biasSeen += ct.biasSeen
		t.biasArmed += ct.biasArmed
	}
	out.quantile("rwmap.select_ns.p50", t.sel, 0.5)
	out.quantile("rwmap.select_ns.p99", t.sel, 0.99)
	out.quantile("rwmap.get_self_ns.p50", t.getSelf, 0.5)
	out.quantile("rwmap.update_self_ns.p50", t.updSelf, 0.5)
	out.quantile("rwlock.stripe.read_ns.p50", t.rprobe, 0.5)
	out.quantile("rwlock.stripe.read_ns.p99", t.rprobe, 0.99)
	out.quantile("rwlock.stripe.write_ns.p50", t.wprobe, 0.5)
	out.quantile("rwlock.stripe.write_ns.p99", t.wprobe, 0.99)
	out.set("rwmap.get_hit_frac", frac(t.getHits, t.gets), t.gets)
	if t.gocs > 0 {
		out.set("rwmap.fill_frac", frac(t.gocs-t.gocLoads, t.gocs), t.gocs)
	} else {
		out.absent["rwmap.fill_frac"] = "the workload issues no GetOrCompute"
	}
	out.set("rwlock.stripe.busy_frac.read", frac(t.rbusy, t.rprobes), t.rprobes)
	out.set("rwlock.stripe.busy_frac.write", frac(t.wbusy, t.wprobes), t.wprobes)
	if t.biasSeen > 0 {
		out.set("rwlock.stripe.bias_armed_frac", frac(t.biasArmed, t.biasSeen), t.biasSeen)
	} else {
		out.absent["rwlock.stripe.bias_armed_frac"] = "the stripe lock has no ReadBiased"
	}
}

func mwsfMetrics(out *report, s rwlock.LockStatsSnapshot) {
	out.set("rwlock.mwsf.read_contended_frac", frac(int(s.ReadContended), int(s.ReadAcquires)), int(s.ReadAcquires))
	out.set("rwlock.mwsf.write_contended_frac", frac(int(s.WriteContended), int(s.WriteAcquires)), int(s.WriteAcquires))
	out.set("rwlock.mwsf.read_wait_ns.p50", float64(s.ReadWait.P50), int(s.ReadWait.Count))
	out.set("rwlock.mwsf.read_wait_ns.p99", float64(s.ReadWait.P99), int(s.ReadWait.Count))
	out.set("rwlock.mwsf.write_wait_ns.p50", float64(s.WriteWait.P50), int(s.WriteWait.Count))
	out.set("rwlock.mwsf.write_wait_ns.p99", float64(s.WriteWait.P99), int(s.WriteWait.Count))
	out.set("rwlock.mwsf.write_hold_ns.p50", float64(s.WriteHold.P50), int(s.WriteHold.Count))
	out.set("rwlock.mwsf.queue_depth_max", float64(s.QueueDepthMax), int(s.WriteAcquires))
}

// stripeBytes is the live heap of an empty map with sp's stripe count,
// per stripe: stripe header, lock and empty Go map.
func stripeBytes(sp *spec) float64 {
	before := liveHeap()
	m := rwmap.New[uint64, val](rwmap.WithStripes(sp.stripes))
	after := liveHeap()
	runtime.KeepAlive(m)
	return float64(after-before) / float64(sp.stripes)
}

// ladder times single passages of each stack layer on one goroutine:
// the Figure 1 core alone (SWWP), the core under the MCS writer
// arbiter (MWSF), and the serving tier's stripe lock (SlimBravo).
func ladder(out *report) {
	rungs := []struct {
		name string
		l    rwlock.RWLock
	}{
		{"swwp", rwlock.NewSWWP()},
		{"mwsf", rwlock.NewMWSF()},
		{"slimbravo", rwlock.NewSlimBravo()},
	}
	for _, r := range rungs {
		rounds, per := 31, 4096
		for _, write := range []bool{false, true} {
			xs := make([]float64, rounds)
			for i := range xs {
				t0 := now()
				for range per {
					if write {
						r.l.Unlock(r.l.Lock())
					} else {
						r.l.RUnlock(r.l.RLock())
					}
				}
				xs[i] = float64(now()-t0) / float64(per)
			}
			name := "ladder." + r.name + ".read_ns"
			if write {
				name = "ladder." + r.name + ".write_ns"
			}
			out.set(name, median(xs), rounds)
		}
	}
}

// rmrCounts runs the paper's algorithms on the cache-coherent
// simulator under a fixed seeded schedule and reports the worst
// remote memory references of one passage per role: Figure 1 with one
// writer and two readers, and MWSF (Figure 1 under the writer
// arbiter) with two writers and two readers.
func rmrCounts(out *report) error {
	const attempts, schedSeed = 12, 42
	worst := func(sys *core.System) (reader, writer int64, err error) {
		r, err := sys.NewRunner(attempts)
		if err != nil {
			return 0, 0, err
		}
		r.CollectStats = true
		if err := r.Run(ccsim.NewRandomSched(schedSeed), 1<<26); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", sys.Name, err)
		}
		for _, s := range r.Stats {
			if s.Reader {
				reader = max(reader, s.RMR)
			} else {
				writer = max(writer, s.RMR)
			}
		}
		return reader, writer, nil
	}
	_, w, err := worst(core.NewFig1System(2))
	if err != nil {
		return err
	}
	out.set("ladder.swwp.write_rmr", float64(w), attempts)
	r, w, err := worst(core.NewMWSFSystem(2, 2))
	if err != nil {
		return err
	}
	out.set("ladder.mwsf.read_rmr", float64(r), 2*attempts)
	out.set("ladder.mwsf.write_rmr", float64(w), 2*attempts)
	return nil
}
