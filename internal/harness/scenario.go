package harness

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"rwsync/internal/ccsim"
	"rwsync/internal/core"
	"rwsync/internal/stats"
	"rwsync/internal/workload"
	"rwsync/rwlock"
)

// SimShape describes a simulator (RMR-accounting) scenario: named
// systems from Builders() swept over (writers, readers) points under
// the seeded random scheduler, in the CC or DSM memory model.
type SimShape struct {
	// Systems names entries of Builders().  The single-writer systems
	// (fig1-swwp, fig2-swrp) only accept points with writers == 1.
	Systems []string `json:"systems,omitempty"`
	// Points is the (writers, readers) grid; nil selects
	// SingleWriterPoints or MultiWriterPoints per system.
	Points [][2]int `json:"points,omitempty"`
	// Attempts is the per-process passage count at each point.
	Attempts int `json:"attempts"`
	// DSM switches the memory model to distributed-shared-memory
	// accounting (experiment E9), where no constant RMR bound exists.
	DSM bool `json:"dsm,omitempty"`

	// build, when set, overrides Systems with one anonymous system
	// constructor.  Only the legacy RMRSweep/RMRSweepDSM wrappers set
	// it; named scenarios go through Builders().
	build func(w, r int) *core.System
}

// Scenario is one declaratively described measurement: which locks
// (or simulator systems), what workload shape, how to pin the
// scheduler, and which probes to enable.  Every sweep the repo runs —
// the four historical ones and each new experiment — is a Scenario
// run through the one RunScenario core, so a new experiment is a
// registry entry, not a new sweep implementation.
type Scenario struct {
	// Name is the registry key (rwbench -scenario).
	Name string `json:"name"`
	// Title is the one-line table heading.
	Title string `json:"title"`
	// Description says what the scenario demonstrates.
	Description string `json:"-"`

	// Locks names NativeLocks registry entries; nil means the default
	// spin set (LockNames).  Ignored for simulator scenarios.
	Locks []string `json:"locks,omitempty"`
	// Workers is the goroutine-count grid; nil means doubling counts
	// up to 2*NumCPU.
	Workers []int `json:"workers,omitempty"`
	// ReadFractions is the read-ratio grid; nil means a single pass
	// (the dedicated-writer shapes, where the mix is structural).
	ReadFractions []float64 `json:"read_fractions,omitempty"`
	// DedicatedWriters > 0 switches to the storm shape: that many
	// workers write exclusively, the rest read exclusively.
	DedicatedWriters int `json:"dedicated_writers,omitempty"`
	// OpsPerWorker sizes op-budget runs; Duration > 0 switches to
	// deadline runs (the oversubscription mode).
	OpsPerWorker int           `json:"ops_per_worker,omitempty"`
	Duration     time.Duration `json:"-"`
	DurationMs   int64         `json:"duration_ms,omitempty"` // JSON mirror of Duration
	// CSWork/ThinkWork shape the critical and remainder sections.
	CSWork    int `json:"cs_work"`
	ThinkWork int `json:"think_work"`
	// SampleEvery is the latency sampling rate (0 = workload
	// default); MeasureAge enables the writer-visibility probe.
	SampleEvery int  `json:"sample_every,omitempty"`
	MeasureAge  bool `json:"measure_age,omitempty"`
	// WriterBurstLen/WriterBurstPause make dedicated writers bursty
	// (see workload.Config).
	WriterBurstLen   int `json:"writer_burst_len,omitempty"`
	WriterBurstPause int `json:"writer_burst_pause,omitempty"`
	// Yield makes workers yield after every op; storm scenarios set
	// it so single-core runs interleave per op instead of degrading
	// into whole scheduler quanta per worker (see workload.Config).
	Yield bool `json:"yield,omitempty"`
	// Churn runs every operation on a fresh goroutine: each worker
	// becomes a lane spawning one short-lived goroutine per op (see
	// workload.Config.Churn).  The writer-churn scenario uses it to
	// drive thousands of distinct one-passage writers — the shape a
	// bounded writer-arbitration API cannot host.
	Churn bool `json:"churn,omitempty"`
	// WriteDeadline gives every write a per-op budget through the
	// lock's LockCtx; expired writes are SHED and reported per point
	// (see workload.Config.WriteDeadline).  The writer-shed scenario
	// uses it to compare how the arbitration layers' commitment
	// points trade shed rate against writer-wait tail.
	WriteDeadline   time.Duration `json:"-"`
	WriteDeadlineUs int64         `json:"write_deadline_us,omitempty"` // JSON mirror of WriteDeadline
	// VersionBytes > 0 makes every write install a freshly allocated
	// versioned datum of that size, retiring the displaced version to
	// the lock when it implements rwlock.VersionRetirer (the Epoch
	// layer's deferred-reclamation seam) and to the GC otherwise.  The
	// age-frontier scenario pairs it with MeasureAge to chart update
	// age against retained memory.
	VersionBytes int `json:"version_bytes,omitempty"`
	// GOMAXPROCS, if > 0, is pinned for the scenario's duration (and
	// restored after) so oversubscription scenarios oversubscribe
	// even on big machines.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`

	// Stripes, when non-empty, switches the scenario to the SHARDED
	// shape: each cell runs workload.RunSharded against a fresh
	// rwmap.Map with that stripe count, every stripe guarded by one
	// instance of the cell's lock.  Sharded cells additionally measure
	// the lock's marginal bytes/instance at the cell's grid size (the
	// BytesPerLock point field).
	Stripes []int `json:"stripes,omitempty"`
	// ZipfS is the key-popularity exponent grid of a sharded scenario
	// (0 = uniform); nil means a single s=0 pass.
	ZipfS []float64 `json:"zipf_s,omitempty"`
	// Keys is the sharded key-space size (0 = workload default).
	Keys int `json:"keys,omitempty"`
	// MixedOps makes every 16th sharded op heavy (8x CSWork inside
	// the critical section — see workload.ShardedConfig.MixedOps).
	MixedOps bool `json:"mixed_ops,omitempty"`

	// Sim switches the scenario to the simulator side: RMR accounting
	// instead of wall-clock workloads.
	Sim *SimShape `json:"sim,omitempty"`
}

// ScenarioOptions are per-run overrides: the seed, the -quick trim,
// and the CLI's -locks/-workers/-ops/-stripes/-skew narrowing.  Zero
// values mean "use the scenario's own settings".
type ScenarioOptions struct {
	Seed    int64
	Quick   bool
	Locks   []string
	Workers []int
	Ops     int
	// Stripes/ZipfS override a sharded scenario's grid-size and skew
	// axes.  They apply only to scenarios that already sweep those
	// axes (the serving-tier family); the CLI rejects them otherwise,
	// the same loud-rejection rule as -locks on a simulator sweep.
	Stripes []int
	ZipfS   []float64
	// Metrics instruments every native and sharded cell with a fresh
	// rwlock.WithStats counter block (one per cell; a sharded cell's
	// stripes share it, so the block aggregates the grid) and folds the
	// quiescent snapshot into the point's Counters field.  The runner
	// cross-checks each block before reporting it: CheckCoherence plus
	// the workload tie (one completed passage per completed op).
	// Simulator scenarios have no native locks; Metrics is ignored
	// there (the CLI rejects -metrics when only simulator scenarios are
	// selected).
	Metrics bool
}

// ScenarioPoint is one measured cell.  Native points carry the
// latency histograms (wait = request→acquire, hold = acquire→release,
// total = the whole passage) and, when the age probe is on, the
// distribution of how stale sampled readers' views were.  Simulator
// points carry RMR summaries by role instead.
type ScenarioPoint struct {
	Lock         string  `json:"lock,omitempty"`
	System       string  `json:"system,omitempty"`
	Workers      int     `json:"workers,omitempty"`
	Writers      int     `json:"writers,omitempty"`
	Readers      int     `json:"readers,omitempty"`
	ReadFraction float64 `json:"read_fraction,omitempty"`
	OpsPerSec    float64 `json:"ops_per_sec,omitempty"`
	ReadOps      int64   `json:"read_ops,omitempty"`
	WriteOps     int64   `json:"write_ops,omitempty"`
	// ShedOps/ShedRate report deadline-shed writes (writer-shed
	// scenario; present only when the scenario set WriteDeadline).
	ShedOps  int64   `json:"shed_ops,omitempty"`
	ShedRate float64 `json:"shed_rate,omitempty"`
	// The sharded-cell fields (additive, schema_version 2): the grid
	// size and skew of the cell, the measured marginal heap bytes per
	// lock instance at that grid size, and how many reads landed on
	// the hottest key (rank 0).
	Stripes      int     `json:"stripes,omitempty"`
	ZipfS        float64 `json:"zipf_s,omitempty"`
	BytesPerLock float64 `json:"bytes_per_lock,omitempty"`
	HotReadOps   int64   `json:"hot_read_ops,omitempty"`

	ReadWait   *stats.HistSnapshot `json:"read_wait_ns,omitempty"`
	ReadHold   *stats.HistSnapshot `json:"read_hold_ns,omitempty"`
	ReadTotal  *stats.HistSnapshot `json:"read_total_ns,omitempty"`
	WriteWait  *stats.HistSnapshot `json:"write_wait_ns,omitempty"`
	WriteHold  *stats.HistSnapshot `json:"write_hold_ns,omitempty"`
	WriteTotal *stats.HistSnapshot `json:"write_total_ns,omitempty"`
	Age        *stats.HistSnapshot `json:"age_ns,omitempty"`
	// BatchSize is the combiner batch-size distribution, present only
	// when the point's lock was built with flat-combining writer
	// arbitration (a "/combine" registry entry): how many write
	// critical sections each drain of the publication list retired.
	BatchSize *stats.HistSnapshot `json:"batch_size,omitempty"`
	// The epoch counters ride only on points whose lock is an Epoch
	// wrapper (rwlock.EpochStatsOf), the same additive-schema pattern
	// as batch_size: advances/grace waits tell how aggressively the
	// fast path was closed, retired/reclaimed and the retained
	// high-water marks tell what deferred reclamation cost in held-back
	// versions and bytes.
	EpochAdvances       int64 `json:"epoch_advances,omitempty"`
	GraceWaits          int64 `json:"grace_waits,omitempty"`
	RetiredVersions     int64 `json:"retired_versions,omitempty"`
	ReclaimedVersions   int64 `json:"reclaimed_versions,omitempty"`
	RetainedVersionsMax int64 `json:"retained_versions_max,omitempty"`
	RetainedBytesMax    int64 `json:"retained_bytes_max,omitempty"`

	ReaderRMR *stats.Summary `json:"reader_rmr,omitempty"`
	WriterRMR *stats.Summary `json:"writer_rmr,omitempty"`

	// Counters is the cell's rwlock.LockStats snapshot, present exactly
	// when the run had metrics enabled (ScenarioOptions.Metrics; rwbench
	// -metrics) on a native or sharded point — never on simulator
	// points.  Rows outside the stats seam (Slim, the classical
	// baselines, sync.RWMutex) carry an all-zero block; see
	// NativeLocksWith.
	Counters *rwlock.LockStatsSnapshot `json:"counters,omitempty"`
}

// ScenarioResult is one scenario's complete run: the resolved
// configuration (after overrides and -quick trimming) and every
// measured point.
type ScenarioResult struct {
	Scenario   Scenario `json:"scenario"`
	Seed       int64    `json:"seed"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	// Metrics records whether the run instrumented its cells with
	// counter blocks (ScenarioOptions.Metrics) — the bit the validator
	// uses to require Counters on every point, or on none.
	Metrics bool            `json:"metrics,omitempty"`
	Points  []ScenarioPoint `json:"points"`
}

// --- registry ---

var (
	scenarioRegistry = map[string]Scenario{}
	scenarioOrder    []string
)

// RegisterScenario adds a scenario to the registry.  Registration
// panics on a duplicate or unnamed scenario: the registry is
// assembled at init time, so a collision is a programming error.
func RegisterScenario(sc Scenario) {
	if sc.Name == "" {
		panic("harness: scenario without a name")
	}
	if _, dup := scenarioRegistry[sc.Name]; dup {
		panic("harness: duplicate scenario " + sc.Name)
	}
	scenarioRegistry[sc.Name] = sc
	scenarioOrder = append(scenarioOrder, sc.Name)
}

// ScenarioNames returns the registered scenario names in registration
// order.
func ScenarioNames() []string {
	return append([]string(nil), scenarioOrder...)
}

// SortedScenarioNames returns the registered scenario names sorted
// lexically — the order for error listings, where the reader is
// scanning for one name.
func SortedScenarioNames() []string {
	names := ScenarioNames()
	sort.Strings(names)
	return names
}

// ScenarioByName looks up a registered scenario.
func ScenarioByName(name string) (Scenario, bool) {
	sc, ok := scenarioRegistry[name]
	return sc, ok
}

// SelectScenarios resolves a comma-separated request ("all", names,
// or empty for the default pair) to scenarios in registration order.
func SelectScenarios(request string) ([]Scenario, error) {
	request = strings.TrimSpace(request)
	if request == "" {
		request = "throughput,priority"
	}
	if request == "all" {
		out := make([]Scenario, 0, len(scenarioOrder))
		for _, name := range scenarioOrder {
			out = append(out, scenarioRegistry[name])
		}
		return out, nil
	}
	want := map[string]bool{}
	for _, part := range strings.Split(request, ",") {
		if part = strings.TrimSpace(part); part != "" {
			if _, ok := scenarioRegistry[part]; !ok {
				return nil, fmt.Errorf("unknown scenario %q (have %s)",
					part, strings.Join(SortedScenarioNames(), ", "))
			}
			want[part] = true
		}
	}
	if len(want) == 0 {
		// A request like "," parses to zero names; running nothing
		// silently would look like an instant, empty success.
		return nil, fmt.Errorf("scenario request %q selects nothing (have %s)",
			request, strings.Join(SortedScenarioNames(), ", "))
	}
	var out []Scenario
	for _, name := range scenarioOrder {
		if want[name] {
			out = append(out, scenarioRegistry[name])
		}
	}
	return out, nil
}

func init() {
	// The four historical sweeps, now registry entries over the one
	// RunScenario core.
	RegisterScenario(Scenario{
		Name:          "throughput",
		Title:         "E7: native throughput by lock, workers and read ratio",
		Description:   "mixed reader/writer ops/sec across the (workers, read%) grid",
		ReadFractions: []float64{0.5, 0.9, 0.99, 1.0},
		OpsPerWorker:  20000,
		CSWork:        32,
		ThinkWork:     32,
	})
	RegisterScenario(Scenario{
		Name:             "priority",
		Title:            "E8: 1 dedicated writer vs 8 readers — latency by class",
		Description:      "minority-class latency under a majority-class storm",
		Workers:          []int{9},
		DedicatedWriters: 1,
		OpsPerWorker:     20000,
		CSWork:           64,
		ThinkWork:        16,
		SampleEvery:      4,
	})
	RegisterScenario(Scenario{
		Name:          "oversub",
		Title:         "E12: oversubscribed throughput (workers >> GOMAXPROCS)",
		Description:   "spin vs park under scheduler pressure, deadline-based",
		Locks:         OversubLockNames(),
		Workers:       []int{16, 64},
		ReadFractions: []float64{0.9, 0.99},
		Duration:      100 * time.Millisecond,
		CSWork:        32,
		ThinkWork:     32,
		GOMAXPROCS:    2,
	})
	RegisterScenario(Scenario{
		Name:        "rmr",
		Title:       "E1-E4: RMRs per passage on the CC simulator",
		Description: "constant-RMR theorems vs growing baselines",
		Sim: &SimShape{
			Systems: []string{"fig1-swwp", "fig2-swrp", "mwsf", "mwrp", "mwwp",
				"centralized", "pfticket", "taskfair", "tournament"},
			Attempts: 8,
		},
	})
	RegisterScenario(Scenario{
		Name:        "rmr-dsm",
		Title:       "E9: RMRs per passage under DSM accounting (no constant bound exists)",
		Description: "the CC result is model-specific: the same algorithms lose O(1) under DSM",
		Sim: &SimShape{
			Systems:  []string{"fig1-swwp", "mwsf", "centralized"},
			Attempts: 6,
			DSM:      true,
		},
	})

	// The scenarios the engine makes cheap: each of these was a
	// hand-rolled measurement (or impossible) before.
	RegisterScenario(Scenario{
		Name:  "bursty-writers",
		Title: "bursty writer storms: update wait latency and read-view age",
		Description: "an administrative writer bursts against a reader storm; " +
			"the product is how long each update waits to land (write wait) " +
			"and how stale readers' views get (age) — with the MWSF row " +
			"repeated under all three writer arbitrations (MCS, bounded " +
			"Anderson, flat combining) so the layer's solo-writer overhead " +
			"shows up here and its batching win in combine-batch",
		Locks: []string{"MWWP", "MWSF", "MWSF/bounded", "MWSF/combine",
			"MWRP", "sync.RWMutex"},
		Workers:          []int{9},
		DedicatedWriters: 1,
		Duration:         150 * time.Millisecond,
		WriterBurstLen:   8,
		WriterBurstPause: 1 << 16,
		CSWork:           8,
		ThinkWork:        8,
		SampleEvery:      1,
		MeasureAge:       true,
		Yield:            true,
	})
	RegisterScenario(Scenario{
		Name:  "starvation",
		Title: "reader-starvation probe: 8 writers flood 2 readers",
		Description: "reader wait-latency tail under a writer flood — the metric " +
			"that separates reader-priority (RP1 protects readers) from " +
			"writer-priority (WP2 lets the flood shut readers out)",
		Workers:          []int{10},
		DedicatedWriters: 8,
		OpsPerWorker:     4000,
		CSWork:           32,
		ThinkWork:        8,
		SampleEvery:      1,
		Yield:            true,
	})
	RegisterScenario(Scenario{
		Name:  "writer-churn",
		Title: "writer churn: thousands of short-lived writers, one passage each",
		Description: "every write passage comes from a brand-new goroutine — the " +
			"shape the old bounded constructors could not host — comparing the " +
			"unbounded MCS writer arbitration against the bounded Anderson array " +
			"(64 slots, so the churn also hits its admission gate), the flat " +
			"combiner (which retires whole batches of one-shot writers per " +
			"handoff), and sync.RWMutex; the product is throughput and the " +
			"writer-wait tail",
		Locks:         ChurnLockNames(),
		Workers:       []int{256}, // concurrent churn lanes, each spawning fresh writers
		ReadFractions: []float64{0},
		// 256 lanes x 128 spawns = 32768 distinct writers per point.
		// The geometry is sized so the 2-P run spans many scheduler
		// quanta with a deep runnable set and a non-trivial critical
		// section: writer pile-ups (holder preempted mid-passage) are
		// then a per-run certainty rather than a coin flip, which is
		// what makes the arbitration comparison repeatable — MCS pays a
		// wake-and-schedule handoff chain per pile-up, the combiner
		// drains each pile-up as one batch (batch max ≈ lane count),
		// and a shorter or shallower run measures scheduler luck
		// instead.
		OpsPerWorker: 128,
		CSWork:       64,
		ThinkWork:    8,
		SampleEvery:  1,
		Churn:        true,
		Yield:        true,
		GOMAXPROCS:   2,
	})
	RegisterScenario(Scenario{
		Name:  "combine-batch",
		Title: "flat-combining batches under writer churn: batch size, writer wait, view age",
		Description: "the writer-churn shape (every op a fresh goroutine, " +
			"GOMAXPROCS=2) run all-write and half-read over the three writer " +
			"arbitrations — unbounded MCS, bounded Anderson (gate saturated), " +
			"flat combining — plus sync.RWMutex; the products are the " +
			"combiner's batch-size distribution (batch p50/p99/max columns), " +
			"the writer-wait tail each arbitration pays per passage, and, on " +
			"the mixed point, how stale the churned readers' views get",
		Locks:         ChurnLockNames(),
		Workers:       []int{256}, // churn lanes, each spawning fresh one-shot goroutines
		ReadFractions: []float64{0, 0.5},
		// 256 lanes x 128 spawns per point, the writer-churn geometry
		// (see there): deep enough that writer pile-ups — the
		// batch-forming mechanism under churn — occur every run.
		OpsPerWorker: 128,
		CSWork:       64,
		ThinkWork:    8,
		SampleEvery:  1,
		MeasureAge:   true,
		Churn:        true,
		Yield:        true,
		GOMAXPROCS:   2,
	})
	RegisterScenario(Scenario{
		Name:  "writer-shed",
		Title: "deadline writers under churn: shed rate vs writer-wait tail",
		Description: "the writer-churn geometry (every write a fresh goroutine, " +
			"GOMAXPROCS=2) with a per-write deadline taken through LockCtx: a " +
			"write that cannot acquire within the budget is shed instead of " +
			"served.  The products are the shed rate and the writer-wait tail " +
			"the surviving writes pay, across the arbitration layers' " +
			"commitment points — the abortable MCS queue sheds from anywhere " +
			"in the wait, the bounded Anderson array only before its committed " +
			"ticket (its gate turns deadlines into admission control), the " +
			"flat combiner sheds through its inner queue on this token path, " +
			"and sync.RWMutex's polling adapter sheds freely but pays the " +
			"poll",
		Locks:         ChurnLockNames(),
		Workers:       []int{256}, // churn lanes; 256 x 128 = 32768 one-shot writers
		ReadFractions: []float64{0},
		OpsPerWorker:  128,
		CSWork:        64,
		ThinkWork:     8,
		SampleEvery:   1,
		Churn:         true,
		Yield:         true,
		GOMAXPROCS:    2,
		// Sized between the uncontended writer wait (p50 ≈ 1µs at this
		// geometry) and the pile-up tail (p99 = several ms): shallow
		// pile-ups squeak under, deep ones blow the budget, so neither
		// shed-everything nor shed-nothing — the regime where the
		// arbitration layers' commitment points actually differ.
		WriteDeadline: 500 * time.Microsecond,
	})
	RegisterScenario(Scenario{
		Name:  "age-frontier",
		Title: "age-memory frontier: update age vs retained versions across grace aggressiveness",
		Description: "every write installs a fresh 1 KiB version and retires the old " +
			"one; the Epoch rows defer reclamation to batch boundaries (bare, " +
			"every-8, every-64 sweeps the grace aggressiveness) while the bare " +
			"MWSF and Bravo rows free versions immediately through the GC.  The " +
			"products chart the frontier the epoch layer trades along: how stale " +
			"readers' views get (age p50/p99) against how many versions and " +
			"bytes deferred reclamation holds back at its worst (retained " +
			"high-water columns) and how often writers pay a grace wait",
		Locks: []string{"MWSF", "Bravo(MWSF)", "MWSF/epoch",
			"MWSF/epoch/lazy8", "MWSF/epoch/lazy64"},
		Workers:       []int{8},
		ReadFractions: []float64{0.95},
		OpsPerWorker:  20000,
		CSWork:        16,
		ThinkWork:     16,
		SampleEvery:   1,
		MeasureAge:    true,
		VersionBytes:  1024,
	})
	RegisterScenario(Scenario{
		Name:  "zipf-grid",
		Title: "serving tier: Zipfian traffic over striped lock grids",
		Description: "a striped map (rwmap) whose every stripe is one lock " +
			"instance, swept across grid sizes 1 / 2^10 / 2^20 and key skews " +
			"s=1.07 (classic serving traffic) and s=1.5 (hot-key pathology), " +
			"with each reader-fast-path protocol in its three footprint " +
			"builds — private table, shared arena, 16-byte slim.  The " +
			"products are cross-shard throughput, per-class wait tails, the " +
			"hot key's read rate and read-view age, and the measured " +
			"bytes/lock-instance each build pays at that grid size — the " +
			"axis that decides whether 10^6 stripes are affordable at all",
		Locks:         ShardedLockNames(),
		Workers:       []int{8},
		ReadFractions: []float64{0.9},
		Stripes:       []int{1, 1 << 10, 1 << 20},
		ZipfS:         []float64{1.07, 1.5},
		Keys:          16384,
		OpsPerWorker:  10000,
		CSWork:        16,
		ThinkWork:     16,
		SampleEvery:   8,
		MeasureAge:    true,
		MixedOps:      true,
		Yield:         true,
	})
	RegisterScenario(Scenario{
		Name:  "latency-grid",
		Title: "latency grid: per-op latency distributions across read ratios",
		Description: "full wait/hold latency histograms per class across the " +
			"read-ratio axis — the distributional view aggregate throughput hides",
		Workers:       []int{4},
		ReadFractions: []float64{0.5, 0.75, 0.9, 0.99, 0.999},
		OpsPerWorker:  20000,
		CSWork:        32,
		ThinkWork:     32,
		SampleEvery:   2,
	})
}

// --- the one core ---

// defaultWorkerGrid is the doubling grid up to 2*NumCPU the
// throughput sweep has always used.
func defaultWorkerGrid() []int {
	var workers []int
	for w := 1; w <= 2*runtime.NumCPU(); w *= 2 {
		workers = append(workers, w)
	}
	if len(workers) == 0 {
		workers = []int{1}
	}
	return workers
}

// quickTrim shrinks a resolved scenario to smoke-test size: first
// worker count, at most two read fractions, a small op budget or
// deadline, fewer sim points and attempts.
func quickTrim(sc Scenario) Scenario {
	if len(sc.Workers) > 1 {
		sc.Workers = sc.Workers[:1]
	}
	if len(sc.ReadFractions) > 2 {
		sc.ReadFractions = sc.ReadFractions[:2]
	}
	if sc.OpsPerWorker > 500 {
		sc.OpsPerWorker = 500
	}
	if sc.Duration > 25*time.Millisecond {
		sc.Duration = 25 * time.Millisecond
	}
	if sc.Sim != nil {
		sim := *sc.Sim
		if sim.Attempts > 4 {
			sim.Attempts = 4
		}
		if len(sim.Points) > 2 {
			sim.Points = sim.Points[:2]
		}
		sc.Sim = &sim
	}
	if len(sc.Stripes) > 0 {
		// Sharded smoke: keep the stripe AXIS (the shape check needs
		// more than one grid size) but drop the 10^5-and-up grids —
		// constructing a million locks is exactly what -quick exists
		// to avoid — and run one skew.
		var kept []int
		for _, s := range sc.Stripes {
			if s <= 1024 {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			kept = []int{1024}
		}
		sc.Stripes = kept
		if len(sc.ZipfS) > 1 {
			sc.ZipfS = sc.ZipfS[:1]
		}
	}
	return sc
}

// RunScenario is the single sweep core every scenario — historical
// and new — runs through.  It resolves the scenario's grids against
// the options, pins GOMAXPROCS if the scenario asks, and measures
// every cell: native cells through workload.Run with per-worker
// latency sampling (and the age probe when enabled), simulator cells
// through the seeded-scheduler RMR accounting.
func RunScenario(sc Scenario, opts ScenarioOptions) (*ScenarioResult, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	// Resolve overrides first, then trim, so -quick applies to
	// whatever grid will actually run.
	if len(opts.Locks) > 0 {
		sc.Locks = opts.Locks
	}
	if len(opts.Workers) > 0 {
		sc.Workers = opts.Workers
	}
	if opts.Ops > 0 && sc.Duration == 0 && sc.Sim == nil {
		sc.OpsPerWorker = opts.Ops
	}
	if len(sc.Stripes) > 0 {
		// The stripe/skew overrides only retarget scenarios that already
		// sweep those axes — applying them elsewhere would silently turn
		// a flat scenario into a sharded one with different semantics;
		// the CLI rejects that combination before it gets here.
		if len(opts.Stripes) > 0 {
			sc.Stripes = opts.Stripes
		}
		if len(opts.ZipfS) > 0 {
			sc.ZipfS = opts.ZipfS
		}
	}
	if opts.Quick {
		sc = quickTrim(sc)
	}
	if sc.GOMAXPROCS > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(sc.GOMAXPROCS))
	}
	res := &ScenarioResult{
		Seed:       opts.Seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	var err error
	switch {
	case sc.Sim != nil:
		res.Points, err = runSimScenario(sc, opts.Seed)
	case len(sc.Stripes) > 0:
		res.Metrics = opts.Metrics
		res.Points, err = runShardedScenario(&sc, opts.Seed, opts.Metrics)
	default:
		res.Metrics = opts.Metrics
		res.Points, err = runNativeScenario(&sc, opts.Seed, opts.Metrics)
	}
	if err != nil {
		return nil, err
	}
	sc.DurationMs = sc.Duration.Milliseconds()
	sc.WriteDeadlineUs = sc.WriteDeadline.Microseconds()
	res.Scenario = sc
	return res, nil
}

// checkCellCounters cross-checks an instrumented cell's quiescent
// counter block against the workload's own op accounting before it is
// reported: the block must pass CheckCoherence, and — because each
// completed workload op is exactly one completed lock passage, and
// each deadline-shed write exactly one context shed — the acquire and
// shed counters must equal the op counts.  An all-silent block (a
// Slim, baseline or sync.RWMutex row, which sit outside the stats
// seam — see NativeLocksWith) is reported as-is: absent
// instrumentation is a documented property of the row, not a
// measurement error.
func checkCellCounters(s *rwlock.LockStatsSnapshot, scenario, lock string, readOps, writeOps, shedOps int64) error {
	if err := s.CheckCoherence(); err != nil {
		return fmt.Errorf("scenario %s lock %s: counter block incoherent: %w", scenario, lock, err)
	}
	if s.ReadAcquires == 0 && s.WriteAcquires == 0 && s.CtxSheds == 0 {
		return nil
	}
	if int64(s.ReadAcquires) != readOps {
		return fmt.Errorf("scenario %s lock %s: %d read acquires counted for %d read ops",
			scenario, lock, s.ReadAcquires, readOps)
	}
	if int64(s.WriteAcquires) != writeOps {
		return fmt.Errorf("scenario %s lock %s: %d write acquires counted for %d write ops",
			scenario, lock, s.WriteAcquires, writeOps)
	}
	if int64(s.CtxSheds) != shedOps {
		return fmt.Errorf("scenario %s lock %s: %d context sheds counted for %d shed ops",
			scenario, lock, s.CtxSheds, shedOps)
	}
	return nil
}

// runNativeScenario sweeps real locks with real goroutines.  It may
// fill in sc's defaulted grids (so the result records what ran).
func runNativeScenario(sc *Scenario, seed int64, metrics bool) ([]ScenarioPoint, error) {
	if len(sc.Locks) == 0 {
		sc.Locks = LockNames()
	}
	builders := NativeLocks()
	for _, name := range sc.Locks {
		if builders[name] == nil {
			return nil, fmt.Errorf("scenario %s: unknown lock %q (have %v)",
				sc.Name, name, SortedLockNames())
		}
	}
	if len(sc.Workers) == 0 {
		sc.Workers = defaultWorkerGrid()
	}
	for _, w := range sc.Workers {
		if w < 1 {
			return nil, fmt.Errorf("scenario %s: worker count %d (need >= 1)", sc.Name, w)
		}
		if sc.DedicatedWriters > 0 && w < 2 {
			// A storm shape needs both classes present; silently
			// running it all-writer would mislabel the measurement.
			return nil, fmt.Errorf("scenario %s: %d workers cannot host %d dedicated writer(s) plus a reader",
				sc.Name, w, sc.DedicatedWriters)
		}
	}
	fractions := sc.ReadFractions
	if len(fractions) == 0 {
		// Dedicated-writer shapes: the mix is structural, one pass.
		fractions = []float64{0}
	}
	var points []ScenarioPoint
	for _, name := range sc.Locks {
		for _, w := range sc.Workers {
			for _, f := range fractions {
				dedicated := sc.DedicatedWriters
				if dedicated >= w {
					dedicated = w - 1 // keep at least one reader in the probe
				}
				build := builders[name]
				var cellStats *rwlock.LockStats
				if metrics {
					// A fresh counter block per cell, and a constructor
					// that threads it through every layer of the cell's
					// lock (the wrapper and its inner lock share the
					// block, so nothing double-counts).
					cellStats = new(rwlock.LockStats)
					build = NativeLocksWith(rwlock.WithStats(cellStats))[name]
				}
				l := build()
				r := workload.Run(l, workload.Config{
					Workers:          w,
					ReadFraction:     f,
					DedicatedWriters: dedicated,
					OpsPerWorker:     sc.OpsPerWorker,
					Duration:         sc.Duration,
					CSWork:           sc.CSWork,
					ThinkWork:        sc.ThinkWork,
					Seed:             seed,
					SampleEvery:      sc.SampleEvery,
					MeasureAge:       sc.MeasureAge,
					WriterBurstLen:   sc.WriterBurstLen,
					WriterBurstPause: sc.WriterBurstPause,
					Yield:            sc.Yield,
					Churn:            sc.Churn,
					WriteDeadline:    sc.WriteDeadline,
					VersionBytes:     sc.VersionBytes,
				})
				pt := ScenarioPoint{
					Lock:         name,
					Workers:      w,
					ReadFraction: f,
					OpsPerSec:    r.Throughput(),
					ReadOps:      r.ReadOps,
					WriteOps:     r.WriteOps,
					ShedOps:      r.ShedOps,
					ShedRate:     r.ShedRate(),
					ReadWait:     r.ReadWaitNs.Snapshot(),
					ReadHold:     r.ReadHoldNs.Snapshot(),
					ReadTotal:    r.ReadTotalNs.Snapshot(),
					WriteWait:    r.WriteWaitNs.Snapshot(),
					WriteHold:    r.WriteHoldNs.Snapshot(),
					WriteTotal:   r.WriteTotalNs.Snapshot(),
					Age:          r.AgeNs.Snapshot(),
					BatchSize:    batchSizeSnapshot(l),
				}
				if es, ok := rwlock.EpochStatsOf(l); ok {
					pt.EpochAdvances = es.Advances
					pt.GraceWaits = es.GraceWaits
					pt.RetiredVersions = es.Retired
					pt.ReclaimedVersions = es.Reclaimed
					pt.RetainedVersionsMax = es.MaxRetainedVersions
					pt.RetainedBytesMax = es.MaxRetainedBytes
				}
				if sc.DedicatedWriters > 0 {
					pt.Writers = dedicated
					pt.Readers = w - dedicated
				}
				if cellStats != nil {
					// The workers have joined: the block is quiescent, so
					// the full coherence set holds and the acquire counts
					// must tie to the workload's op counts exactly.
					snap := cellStats.Snapshot()
					if err := checkCellCounters(&snap, sc.Name, name, r.ReadOps, r.WriteOps, r.ShedOps); err != nil {
						return nil, err
					}
					pt.Counters = &snap
				}
				points = append(points, pt)
			}
		}
	}
	return points, nil
}

// batchSizeSnapshot folds a combining lock's batch-size counts into a
// histogram snapshot (nil when l does not combine, or combined
// nothing — the workers have joined, so the quiescence the stats
// accessor requires holds).  The last Sizes bucket aggregates batches
// past the exact range; they are recorded at the observed maximum,
// which is exact when the overflow batch is unique and conservative
// otherwise.
func batchSizeSnapshot(l rwlock.RWLock) *stats.HistSnapshot {
	cs, ok := rwlock.CombinerStatsOf(l)
	if !ok || cs.Batches == 0 {
		return nil
	}
	h := new(stats.Histogram)
	for i, count := range cs.Sizes {
		size := int64(i + 1)
		if i == len(cs.Sizes)-1 && cs.MaxBatch > size {
			size = cs.MaxBatch
		}
		for j := int64(0); j < count; j++ {
			h.Record(size)
		}
	}
	return h.Snapshot()
}

// runSimScenario sweeps simulator systems under RMR accounting.  This
// is the same core the legacy RMRSweep/RMRSweepDSM wrappers run
// through.
func runSimScenario(sc Scenario, seed int64) ([]ScenarioPoint, error) {
	sim := sc.Sim
	type namedBuild struct {
		name  string
		build func(w, r int) *core.System
	}
	var systems []namedBuild
	if sim.build != nil {
		systems = []namedBuild{{name: sc.Name, build: sim.build}}
	} else {
		builders := Builders()
		for _, name := range sim.Systems {
			b := builders[name]
			if b == nil {
				return nil, fmt.Errorf("scenario %s: unknown system %q", sc.Name, name)
			}
			systems = append(systems, namedBuild{name: name, build: b})
		}
	}
	attempts := sim.Attempts
	if attempts <= 0 {
		attempts = 8
	}
	var points []ScenarioPoint
	for _, s := range systems {
		pts := sim.Points
		if pts == nil {
			if s.name == "fig1-swwp" || s.name == "fig2-swrp" {
				pts = SingleWriterPoints()
			} else {
				pts = MultiWriterPoints()
			}
			if len(pts) > 4 { // named grids are long; the scenario view samples them
				pts = [][2]int{pts[0], pts[2], pts[len(pts)-1]}
			}
		}
		for _, pt := range pts {
			row, err := runSimPoint(s.build, pt[0], pt[1], attempts, seed, sim.DSM)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
			}
			reader, writer := row.Reader, row.Writer
			points = append(points, ScenarioPoint{
				System:    s.name,
				Writers:   pt[0],
				Readers:   pt[1],
				ReaderRMR: &reader,
				WriterRMR: &writer,
			})
		}
	}
	return points, nil
}

// runSimPoint measures one (writers, readers) cell on the simulator:
// build the system, optionally re-home its variables for DSM
// accounting, run the seeded random scheduler, and summarize RMRs by
// role.
func runSimPoint(build func(w, r int) *core.System, w, r, attempts int, seed int64, dsm bool) (RMRRow, error) {
	sys := build(w, r)
	if dsm {
		sys.Mem.SetModel(ccsim.ModelDSM)
		for v := 0; v < sys.Mem.NumVars(); v++ {
			sys.Mem.SetHome(ccsim.Var(v), v%(w+r))
		}
	}
	run, err := sys.NewRunner(attempts)
	if err != nil {
		return RMRRow{}, fmt.Errorf("harness: %s w=%d r=%d: %w", sys.Name, w, r, err)
	}
	run.CollectStats = true
	budget := int64(attempts) * int64(w+r) * 1 << 16
	if err := run.Run(ccsim.NewRandomSched(seed+int64(w*1000+r)), budget); err != nil {
		return RMRRow{}, fmt.Errorf("harness: %s w=%d r=%d: %w", sys.Name, w, r, err)
	}
	var readerRMR, writerRMR []int64
	for _, s := range run.Stats {
		if s.Reader {
			readerRMR = append(readerRMR, s.RMR)
		} else {
			writerRMR = append(writerRMR, s.RMR)
		}
	}
	return RMRRow{
		Writers: w,
		Readers: r,
		Reader:  stats.Summarize(readerRMR),
		Writer:  stats.Summarize(writerRMR),
	}, nil
}

// --- presentation ---

// ScenarioTable renders a scenario result with the columns its
// metrics call for: simulator results get RMR columns; native results
// get throughput plus wait-latency tails, and an age column when the
// writer-visibility probe ran.  The full histograms ride only in the
// JSON report — the table is the human summary.
func ScenarioTable(res *ScenarioResult) *stats.Table {
	title := fmt.Sprintf("%s [scenario %s, seed %d, GOMAXPROCS=%d]",
		res.Scenario.Title, res.Scenario.Name, res.Seed, res.GOMAXPROCS)
	if res.Scenario.Sim != nil {
		t := stats.NewTable(title,
			"system", "writers", "readers",
			"reader RMR mean", "reader RMR max",
			"writer RMR mean", "writer RMR max")
		for _, p := range res.Points {
			t.AddRow(p.System,
				fmt.Sprintf("%d", p.Writers),
				fmt.Sprintf("%d", p.Readers),
				fmt.Sprintf("%.1f", p.ReaderRMR.Mean),
				fmt.Sprintf("%d", p.ReaderRMR.Max),
				fmt.Sprintf("%.1f", p.WriterRMR.Mean),
				fmt.Sprintf("%d", p.WriterRMR.Max))
		}
		return t
	}
	hasAge, hasBatch, hasEpoch := false, false, false
	hasShed := res.Scenario.WriteDeadline > 0 || res.Scenario.WriteDeadlineUs > 0
	for _, p := range res.Points {
		if p.Age != nil {
			hasAge = true
		}
		if p.BatchSize != nil {
			hasBatch = true
		}
		if p.EpochAdvances > 0 {
			hasEpoch = true
		}
	}
	sharded := len(res.Scenario.Stripes) > 0
	headers := []string{"lock", "workers", "read%"}
	if sharded {
		// The serving-tier axes ride on every row: the grid size and
		// skew identify the cell, B/lock is the footprint that cell's
		// grid pays per stripe, hot rd/s is the skew made visible.
		headers = append(headers, "stripes", "zipf s", "B/lock")
	}
	headers = append(headers, "ops/s")
	if sharded {
		headers = append(headers, "hot rd/s")
	}
	headers = append(headers,
		"rd wait p50", "rd wait p99", "rd wait p99.9",
		"wr wait p50", "wr wait p99", "wr wait p99.9")
	if hasShed {
		headers = append(headers, "shed%")
	}
	if hasAge {
		headers = append(headers, "age p50", "age p99")
	}
	if hasBatch {
		headers = append(headers, "batch p50", "batch p99", "batch max")
	}
	if hasEpoch {
		// The age-frontier columns: how often the fast path was closed
		// (grace waits) against what deferred reclamation held back at
		// its worst (retained versions / bytes).  Non-epoch rows show
		// "-": they retire nothing and retain nothing.
		headers = append(headers, "grace", "ret vers max", "ret bytes max")
	}
	t := stats.NewTable(title, headers...)
	q := func(h *stats.HistSnapshot, pick func(*stats.HistSnapshot) int64) string {
		if h == nil {
			return "-"
		}
		return fmt.Sprintf("%d", pick(h))
	}
	for _, p := range res.Points {
		readPct := fmt.Sprintf("%.4g", p.ReadFraction*100)
		if p.Readers > 0 || p.Writers > 0 {
			readPct = fmt.Sprintf("%dr/%dw", p.Readers, p.Writers)
		}
		row := []string{
			p.Lock,
			fmt.Sprintf("%d", p.Workers),
			readPct,
		}
		if sharded {
			row = append(row,
				fmt.Sprintf("%d", p.Stripes),
				fmt.Sprintf("%.4g", p.ZipfS),
				fmt.Sprintf("%.0f", p.BytesPerLock))
		}
		row = append(row, fmt.Sprintf("%.0f", p.OpsPerSec))
		if sharded {
			hot := 0.0
			if p.HotReadOps > 0 && res.Scenario.OpsPerWorker > 0 && p.OpsPerSec > 0 {
				// hot rd/s = hot reads × (ops/s ÷ total ops): elapsed
				// time is not carried per point, so reconstruct it from
				// the throughput the point already reports.
				hot = float64(p.HotReadOps) * p.OpsPerSec / float64(p.ReadOps+p.WriteOps)
			}
			row = append(row, fmt.Sprintf("%.0f", hot))
		}
		row = append(row,
			q(p.ReadWait, func(h *stats.HistSnapshot) int64 { return h.P50 }),
			q(p.ReadWait, func(h *stats.HistSnapshot) int64 { return h.P99 }),
			q(p.ReadWait, func(h *stats.HistSnapshot) int64 { return h.P999 }),
			q(p.WriteWait, func(h *stats.HistSnapshot) int64 { return h.P50 }),
			q(p.WriteWait, func(h *stats.HistSnapshot) int64 { return h.P99 }),
			q(p.WriteWait, func(h *stats.HistSnapshot) int64 { return h.P999 }),
		)
		if hasShed {
			row = append(row, fmt.Sprintf("%.1f", p.ShedRate*100))
		}
		if hasAge {
			row = append(row,
				q(p.Age, func(h *stats.HistSnapshot) int64 { return h.P50 }),
				q(p.Age, func(h *stats.HistSnapshot) int64 { return h.P99 }))
		}
		if hasBatch {
			row = append(row,
				q(p.BatchSize, func(h *stats.HistSnapshot) int64 { return h.P50 }),
				q(p.BatchSize, func(h *stats.HistSnapshot) int64 { return h.P99 }),
				q(p.BatchSize, func(h *stats.HistSnapshot) int64 { return h.Max }))
		}
		if hasEpoch {
			if p.EpochAdvances > 0 {
				row = append(row,
					fmt.Sprintf("%d", p.GraceWaits),
					fmt.Sprintf("%d", p.RetainedVersionsMax),
					fmt.Sprintf("%d", p.RetainedBytesMax))
			} else {
				row = append(row, "-", "-", "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}
