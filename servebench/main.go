// Command servebench is the repository's serving benchmark.  It drives
// rwmap.Map (default stripe lock) and rwlock.Guard (default lock, MWSF)
// closed loop from two worker goroutines on seeded op streams, checks
// every answer, and prints one JSON result line.  See README.md.
//
// Usage, from the repository root:
//
//	bash servebench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run (--trace 0).
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s"},
	{"read_p50_ns", "ns"},
	{"read_p99_ns", "ns"},
	{"write_p50_ns", "ns"},
	{"write_p99_ns", "ns"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics of the traced run (--trace 1).  A metric
// whose layer the workload does not run is reported as 0 and named,
// with the reason, in the record's "absent" map.
var perLayer = []metricDef{
	{"rwmap.select_ns.p50", "ns"},
	{"rwmap.select_ns.p99", "ns"},
	{"rwmap.get_self_ns.p50", "ns"},
	{"rwmap.update_self_ns.p50", "ns"},
	{"rwmap.get_hit_frac", "frac"},
	{"rwmap.fill_frac", "frac"},
	{"rwmap.heap_bytes_per_stripe", "B"},
	{"rwlock.stripe.read_ns.p50", "ns"},
	{"rwlock.stripe.read_ns.p99", "ns"},
	{"rwlock.stripe.write_ns.p50", "ns"},
	{"rwlock.stripe.write_ns.p99", "ns"},
	{"rwlock.stripe.busy_frac.read", "frac"},
	{"rwlock.stripe.busy_frac.write", "frac"},
	{"rwlock.stripe.bias_armed_frac", "frac"},
	{"rwlock.mwsf.read_contended_frac", "frac"},
	{"rwlock.mwsf.write_contended_frac", "frac"},
	{"rwlock.mwsf.read_wait_ns.p50", "ns"},
	{"rwlock.mwsf.read_wait_ns.p99", "ns"},
	{"rwlock.mwsf.write_wait_ns.p50", "ns"},
	{"rwlock.mwsf.write_wait_ns.p99", "ns"},
	{"rwlock.mwsf.write_hold_ns.p50", "ns"},
	{"rwlock.mwsf.queue_depth_max", "count"},
	{"ladder.swwp.read_ns", "ns"},
	{"ladder.swwp.write_ns", "ns"},
	{"ladder.mwsf.read_ns", "ns"},
	{"ladder.mwsf.write_ns", "ns"},
	{"ladder.slimbravo.read_ns", "ns"},
	{"ladder.slimbravo.write_ns", "ns"},
	{"ladder.swwp.write_rmr", "count"},
	{"ladder.mwsf.read_rmr", "count"},
	{"ladder.mwsf.write_rmr", "count"},
	{"trace_overhead_frac", "frac"},
	{"ref.rwmutex.throughput_ops_s", "ops/s"},
	{"ref.syncmap.throughput_ops_s", "ops/s"},
}

const (
	// warmDur is run before each measured phase: stripe maps, caches
	// and lock biases settle before the first timed op.
	warmDur = time.Second
	// sliceDur is the length of one measured slice.  Throughput and
	// latency quantiles are medians over slices, so a slice disturbed
	// by another process on the machine does not move them.
	sliceDur = 500 * time.Millisecond
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the op streams")
	secs := fs.Int("seconds", 10, "seconds measured per run")
	trace := fs.Int("trace", 0, "0: end-to-end run; 1: traced run with the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "servebench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	specs := workloads
	if *name != "all" {
		sp, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintf(stderr, "servebench: %v\n", err)
			return 2
		}
		specs = []*spec{sp}
	}
	prov := provenance(*seed)
	code := 0
	for _, sp := range specs {
		out := newReport()
		streams := sp.streams(*seed, workers)
		dur := time.Duration(*secs) * time.Second
		if *trace == 1 {
			// Each traced-run phase measures a third of the run.
			layerRun(sp, streams, dur/3, out)
		} else {
			e2eRun(sp, streams, dur, out)
		}
		if !out.emit(stdout, sp, *trace == 1, prov) {
			fmt.Fprintf(stderr, "servebench: %s: %d of %d checks failed; first: %s\n", sp.name, out.failed, out.attempted, out.firstFail)
			code = 1
		}
	}
	return code
}

// instance is one set-up system under test with its clients.
type instance interface {
	newClients(streams [][]uint64) []client
	// check verifies the quiescent system against the clients'
	// tallies; it returns the checks made and failed.
	check() (checks, fails int, first string)
}

// newDefault sets up sp's product build: rwmap with its default stripe
// lock, or Guard with its default lock.
func newDefault(sp *spec) instance {
	if sp.guard {
		return newGuard(sp, nil)
	}
	return newRWMap(sp)
}

type phaseResult struct {
	slices            []sliceStat
	attempted, failed int
	dropped           int
	gcs               uint32 // collections while the clients ran
	firstFail         string
}

// runPhase drives in closed loop for a warm-up and n slices, then
// checks it.  A collection before the start keeps the clients' buffer
// allocation from setting off one during the run.
func runPhase(in instance, streams [][]uint64, n int, traced bool) phaseResult {
	cs := in.newClients(streams)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	r := phaseResult{slices: drive(cs, warmDur, sliceDur, n, traced)}
	runtime.ReadMemStats(&ms)
	r.gcs = ms.NumGC - gc0
	checks, fails, first := in.check()
	r.attempted, r.failed = checks, fails
	for _, c := range cs {
		w := c.base()
		r.attempted += w.ops
		r.failed += w.fails
		r.dropped += w.dropped
		if r.firstFail == "" {
			r.firstFail = w.firstFail
		}
	}
	if r.firstFail == "" {
		r.firstFail = first
	}
	return r
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// e2eRun sets sp up sp.setups times (construction plus prefill), then
// measures the last sp.rounds instances in turn for dur in all.  Each
// rwmap draws its own hash seed, which decides which hot keys share a
// stripe; measuring several instances averages that draw within a run.
func e2eRun(sp *spec, streams [][]uint64, dur time.Duration, out *report) {
	setup := make([]float64, sp.setups)
	heap := make([]float64, sp.setups)
	var ins []instance
	for i := range setup {
		// Each set-up starts, as a fresh process does, on memory the
		// heap has handed back to the operating system, so every one
		// pays the same page faults.
		debug.FreeOSMemory()
		before := liveHeap()
		t0 := time.Now()
		in := newDefault(sp)
		setup[i] = time.Since(t0).Seconds()
		heap[i] = float64(liveHeap()-before) / (1 << 20)
		if i >= sp.setups-sp.rounds {
			ins = append(ins, in)
		}
	}
	out.set("setup_s", median(setup), len(setup))
	out.set("heap_mb", median(heap), len(heap))

	var slices []sliceStat
	n := max(1, int(dur/sliceDur)/sp.rounds)
	for i := range ins {
		p := runPhase(ins[i], streams, n, false)
		ins[i] = nil // frees its clients' buffers before the next round
		slices = append(slices, p.slices...)
		out.add(p)
	}
	out.extra["clock_read_ns"] = float64(clockRead())

	out.set("throughput_ops_s", throughput(slices), len(slices))
	reads := func(s sliceStat) []int32 { return s.reads }
	writes := func(s sliceStat) []int32 { return s.writes }
	for _, q := range []struct {
		name string
		pick func(sliceStat) []int32
		q    float64
	}{
		{"read_p50_ns", reads, 0.5},
		{"read_p99_ns", reads, 0.99},
		{"write_p50_ns", writes, 0.5},
		{"write_p99_ns", writes, 0.99},
	} {
		v, n := sliceQuantile(slices, q.pick, q.q)
		out.set(q.name, v, n)
	}
}

type metricVal struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report collects one run's metrics and oracle tallies.
type report struct {
	values            map[string]metricVal
	absent            map[string]string
	extra             map[string]float64
	attempted, failed int
	firstFail         string
	slices            int
}

func newReport() *report {
	return &report{values: map[string]metricVal{}, absent: map[string]string{}, extra: map[string]float64{}}
}

func (r *report) set(name string, v float64, samples int) {
	r.values[name] = metricVal{Value: v, Samples: samples}
}

func (r *report) quantile(name string, xs []int32, q float64) {
	if len(xs) < minSamples(q) {
		r.absent[name] = fmt.Sprintf("%d samples, fewer than the %d this quantile needs", len(xs), minSamples(q))
		return
	}
	r.set(name, quantile(xs, q), len(xs))
}

func (r *report) add(p phaseResult) {
	r.attempted += p.attempted
	r.failed += p.failed
	r.slices += len(p.slices)
	r.extra["gc_cycles"] += float64(p.gcs)
	r.extra["samples_dropped"] += float64(p.dropped)
	if r.firstFail == "" {
		r.firstFail = p.firstFail
	}
}

func (r *report) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	if r.firstFail == "" {
		r.firstFail = fmt.Sprintf(format, args...)
	}
}

// emit prints every metric by name with its unit, then the record
// line (provenance, sample counts, absent metrics), then the result
// line.  It reports whether the oracle found no error.
func (r *report) emit(w io.Writer, sp *spec, traced bool, prov map[string]any) bool {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := map[string]metricVal{}
	for _, d := range defs {
		m := r.values[d.name] // zero when absent
		m.Unit = d.unit
		metrics[d.name] = m
	}
	errRate := frac(r.failed, r.attempted)
	for _, d := range defs {
		m := metrics[d.name]
		note := fmt.Sprintf("samples=%d", m.Samples)
		if why, ok := r.absent[d.name]; ok {
			note = "absent: " + why
		}
		fmt.Fprintf(w, "%-18s %-34s %16.6g %-6s %s\n", sp.name, d.name, m.Value, d.unit, note)
	}
	fmt.Fprintf(w, "%-18s %-34s %16.6g %-6s failed=%d attempted=%d\n", sp.name, "error_rate", errRate, "frac", r.failed, r.attempted)

	rec := map[string]any{
		"workload":   sp.name,
		"trace":      traced,
		"provenance": prov,
		"slices":     r.slices,
		"slice_s":    sliceDur.Seconds(),
		"warmup_s":   warmDur.Seconds(),
		"metrics":    metrics,
		"error_rate": errRate,
		"absent":     r.absent,
		"extra":      r.extra,
	}
	if !traced {
		rec["setups"] = sp.setups
		rec["rounds"] = sp.rounds
	}
	line(w, map[string]any{"record": rec})

	result := map[string]metricVal{}
	for name, m := range metrics {
		result[name] = metricVal{Value: m.Value, Unit: m.Unit}
	}
	ok := r.failed == 0
	line(w, struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{ok, r.attempted, r.failed, result})
	return ok
}

func line(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value is a finite number or a string
	}
	fmt.Fprintf(w, "%s\n", b)
}
