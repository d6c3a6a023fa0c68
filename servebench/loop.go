package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// workers is the closed-loop client count: one per CPU of the
	// 2-CPU machine the benchmark was defined on.
	workers = 2
	// batch is how many ops a worker runs between looks at the phase
	// word, so the look costs nothing per op.
	batch = 64
	// readEvery and writeEvery select the timed ops by stream
	// position in a measured phase: one read op in 16, one write op in
	// 4.  Writes are rarer on the read-mostly workloads and their tail
	// needs the samples; a timed op costs two clock reads.
	readEvery  = 16
	writeEvery = 4
	// sampleCap bounds each worker's latency buffers, allocated before
	// the run so the timed loop never allocates; samples past it are
	// dropped and counted.
	sampleCap = 1 << 21
)

// sampling says which op classes a step times.
type sampling uint8

const (
	timeReads sampling = 1 << iota
	timeWrites
)

// opClass is the class of each op kind; GetOrCompute is a read when it
// finds its key and a write when it fills.
var opClass = [...]sampling{
	opGet:          timeReads,
	opUpdate:       timeWrites,
	opGetOrCompute: timeReads | timeWrites,
	opDelete:       timeWrites,
	opRead:         timeReads,
	opWrite:        timeWrites,
}

var epoch = time.Now()

// now is a monotonic clock read.
func now() time.Duration { return time.Since(epoch) }

// clockRead is the median cost of one clock read; every timed span
// includes about one.
func clockRead() time.Duration {
	const per = 1000
	xs := make([]float64, 51)
	for i := range xs {
		t0 := now()
		for range per {
			now()
		}
		xs[i] = float64(now()-t0) / per
	}
	return time.Duration(median(xs))
}

// client performs one worker's ops against one instance of the system
// under test and checks every answer.
type client interface {
	base() *worker
	// do performs e, timing the library call if e's class is in s.
	do(e uint64, s sampling)
	// doTraced performs e with the traced run's spans and probes.
	doTraced(e uint64, s sampling)
}

type counts struct{ ops, reads, writes int }

// worker is the state a client shares with the closed loop: its op
// stream, its latency samples and its oracle failures.
type worker struct {
	_         [128]byte // keeps the two workers' hot fields on separate cache lines
	stream    []uint64
	pos       int
	ops       int
	reads     []int32 // sampled read-op latencies, ns
	writes    []int32 // sampled write-op latencies, ns
	dropped   int
	bounds    []counts // bounds[p]: counts when the worker entered phase p
	fails     int
	firstFail string
}

func newWorker(stream []uint64) worker {
	return worker{stream: stream, reads: make([]int32, 0, sampleCap), writes: make([]int32, 0, sampleCap)}
}

func (w *worker) base() *worker { return w }

func (w *worker) fail(format string, args ...any) {
	if w.fails == 0 {
		w.firstFail = fmt.Sprintf(format, args...)
	}
	w.fails++
}

func (w *worker) sample(buf *[]int32, d time.Duration) {
	if len(*buf) == cap(*buf) {
		w.dropped++
		return
	}
	*buf = append(*buf, int32(min(d, math.MaxInt32)))
}

func (w *worker) counts() counts { return counts{w.ops, len(w.reads), len(w.writes)} }

// loop replays the stream through step until the phase word reaches
// stop.  Phase 0 is warm-up (no samples); phases 1..stop-1 are the
// measured slices.
func (w *worker) loop(phaseWord *atomic.Int64, stop int64, step func(e uint64, s sampling)) {
	w.bounds = make([]counts, stop+1)
	mask := len(w.stream) - 1
	phase := int64(0)
	for {
		for range batch {
			var s sampling
			if phase > 0 {
				if w.pos%readEvery == 0 {
					s = timeReads | timeWrites
				} else if w.pos%writeEvery == 0 {
					s = timeWrites
				}
			}
			step(w.stream[w.pos], s)
			w.pos = (w.pos + 1) & mask
		}
		w.ops += batch
		if p := phaseWord.Load(); p != phase {
			for phase < p {
				phase++
				w.bounds[phase] = w.counts()
			}
			if phase >= stop {
				return
			}
		}
	}
}

// sliceStat is one measured slice, merged over workers.
type sliceStat struct {
	secs          float64
	ops           int
	reads, writes []int32
}

// drive runs the clients closed loop, one goroutine each: warm-up,
// then n measured slices of length slice.  It returns once every
// client goroutine has ended.
func drive(cs []client, warm, slice time.Duration, n int, traced bool) []sliceStat {
	var phaseWord atomic.Int64
	stop := int64(n + 1)
	var wg sync.WaitGroup
	for _, c := range cs {
		step := c.do
		if traced {
			step = c.doTraced
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.base().loop(&phaseWord, stop, step)
		}()
	}
	time.Sleep(warm)
	marks := make([]time.Time, n+1)
	for p := 1; p <= n; p++ {
		marks[p-1] = time.Now()
		phaseWord.Store(int64(p))
		time.Sleep(slice)
	}
	marks[n] = time.Now()
	phaseWord.Store(stop)
	wg.Wait()

	out := make([]sliceStat, n)
	for i := range out {
		s := &out[i]
		s.secs = marks[i+1].Sub(marks[i]).Seconds()
		for _, c := range cs {
			w := c.base()
			lo, hi := w.bounds[i+1], w.bounds[i+2]
			s.ops += hi.ops - lo.ops
			s.reads = append(s.reads, w.reads[lo.reads:hi.reads]...)
			s.writes = append(s.writes, w.writes[lo.writes:hi.writes]...)
		}
	}
	return out
}

// throughput is the median over slices of completed ops per second.
func throughput(ss []sliceStat) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = float64(s.ops) / s.secs
	}
	return median(xs)
}

// minSamples is the sample count at which quantile q has ten samples
// beyond it.
func minSamples(q float64) int { return int(math.Ceil(10 / (1 - q))) }

// sliceQuantile is the median over slices of each slice's q-quantile,
// over the slices with enough samples for q; when none has enough, it
// is the q-quantile of all samples pooled.  It also returns the
// number of samples behind the value.
func sliceQuantile(ss []sliceStat, pick func(sliceStat) []int32, q float64) (float64, int) {
	var vals []float64
	used, all := 0, 0
	var pool []int32
	for _, s := range ss {
		xs := pick(s)
		all += len(xs)
		pool = append(pool, xs...)
		if len(xs) >= minSamples(q) {
			vals = append(vals, quantile(xs, q))
			used += len(xs)
		}
	}
	if len(vals) > 0 {
		return median(vals), used
	}
	return quantile(pool, q), all
}

// quantile is the nearest-rank q-quantile of xs; 0 when xs is empty.
// It sorts a copy.
func quantile(xs []int32, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// frac is a/b, or 0 when b is 0.
func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
