package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"rwsync/internal/harness"
)

func TestParseIntList(t *testing.T) {
	got, err := parseIntList("1, 2,8")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("parseIntList = %v", got)
	}
	if _, err := parseIntList("1,x"); err == nil {
		t.Fatal("expected error for non-integer")
	}
	got, err = parseIntList("4,")
	if err != nil || len(got) != 1 {
		t.Fatalf("trailing comma: %v %v", got, err)
	}
}

func TestRunQuick(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "200", "-workers", "2"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "E7: native throughput") {
		t.Fatalf("missing E7:\n%s", out)
	}
	if !strings.Contains(out, "E8:") {
		t.Fatalf("missing E8:\n%s", out)
	}
	if !strings.Contains(out, "sync.RWMutex") {
		t.Fatalf("missing baseline column:\n%s", out)
	}
}

func TestRunMarkdownOutput(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "200", "-workers", "1", "-markdown"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "| workers | read% |") {
		t.Fatalf("markdown table malformed:\n%s", b.String())
	}
}

func TestRunBadWorkers(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-workers", "abc"}, &b); err == nil {
		t.Fatal("expected error for bad -workers")
	}
}

func TestRunLocksSubset(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "200", "-workers", "2",
		"-locks", "MWSF,Bravo(MWSF),sync.RWMutex"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range []string{"MWSF", "Bravo(MWSF)", "sync.RWMutex"} {
		if !strings.Contains(out, name) {
			t.Fatalf("missing selected lock %s:\n%s", name, out)
		}
	}
	if strings.Contains(out, "TaskFairRW") {
		t.Fatalf("unselected lock leaked into the sweep:\n%s", out)
	}
}

func TestRunUnknownLock(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-locks", "NoSuchLock"}, &b)
	if err == nil || !strings.Contains(err.Error(), "NoSuchLock") {
		t.Fatalf("expected unknown-lock error, got %v", err)
	}
	// The listing must name the epoch variants and print sorted — the
	// reader is scanning it for one name, not browsing the families.
	if !strings.Contains(err.Error(), "MWSF/epoch") {
		t.Fatalf("unknown-lock listing misses the epoch variants: %v", err)
	}
	if !sort.StringsAreSorted(harness.SortedLockNames()) {
		t.Fatal("SortedLockNames is not sorted")
	}
}

func TestRunParkVariantSelectable(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "200", "-workers", "2",
		"-locks", "MWSF,MWSF/park"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "MWSF/park") {
		t.Fatalf("park variant missing from sweep:\n%s", b.String())
	}
}

func TestRunBoundedVariantSelectable(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "200", "-workers", "2",
		"-locks", "MWSF,MWSF/bounded,MWSF/bounded/park"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"MWSF/bounded", "MWSF/bounded/park"} {
		if !strings.Contains(b.String(), name) {
			t.Fatalf("bounded variant %s missing from sweep:\n%s", name, b.String())
		}
	}
}

func TestRunScenarioWriterChurn(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-scenario", "writer-churn"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"writer churn", "MWSF/park", "MWSF/bounded/park",
		"MWSF/combine/park", "sync.RWMutex", "wr wait p99", "batch p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("writer-churn output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCombineVariantSelectable(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "200", "-workers", "2",
		"-locks", "MWSF,MWSF/combine,MWSF/combine/park"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"MWSF/combine", "MWSF/combine/park"} {
		if !strings.Contains(b.String(), name) {
			t.Fatalf("combine variant %s missing from sweep:\n%s", name, b.String())
		}
	}
}

func TestRunScenarioCombineBatch(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "32", "-scenario", "combine-batch"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"flat-combining batches", "MWSF/park",
		"MWSF/bounded/park", "MWSF/combine/park", "sync.RWMutex",
		"batch p50", "batch p99", "batch max", "age p50"} {
		if !strings.Contains(out, want) {
			t.Fatalf("combine-batch output missing %q:\n%s", want, out)
		}
	}
}

// TestRunRejectsEmptySelections: a -locks or -scenario value that
// parses to zero names must be rejected with the valid names, not
// silently swept as something else (the default set, or nothing).
func TestRunRejectsEmptySelections(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-locks", ","}, &b)
	if err == nil || !strings.Contains(err.Error(), "selects no lock names") ||
		!strings.Contains(err.Error(), "MWSF/combine") {
		t.Fatalf("empty -locks error = %v, want rejection listing the registry", err)
	}
	err = run([]string{"-scenario", ","}, &b)
	if err == nil || !strings.Contains(err.Error(), "selects nothing") ||
		!strings.Contains(err.Error(), "combine-batch") {
		t.Fatalf("empty -scenario error = %v, want rejection listing the scenarios", err)
	}
}

func TestRunJSONOutput(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "200", "-workers", "2", "-json",
		"-oversub", "-oversub-workers", "8", "-oversub-duration", "20ms",
		"-locks", "MWSF,MWSF/park,sync.RWMutex"}, &b); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal([]byte(b.String()), &rep); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, b.String())
	}
	if rep.GOMAXPROCS <= 0 || len(rep.Locks) != 3 {
		t.Fatalf("metadata missing: %+v", rep)
	}
	if len(rep.Throughput) == 0 || len(rep.Priority) == 0 || len(rep.Oversubscribed) == 0 {
		t.Fatalf("sweep points missing: tp=%d prio=%d oversub=%d",
			len(rep.Throughput), len(rep.Priority), len(rep.Oversubscribed))
	}
	for _, p := range rep.Oversubscribed {
		if p.Workers != 8 || p.OpsPerSec <= 0 {
			t.Fatalf("bad oversubscribed point %+v", p)
		}
	}
	// Tables must not leak into machine-readable output.
	if strings.Contains(b.String(), "E7:") {
		t.Fatalf("table text mixed into -json output:\n%s", b.String())
	}
}

func TestRunScenarioSelection(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-scenario", "latency-grid,starvation",
		"-locks", "MWSF,MWRP"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"latency grid", "starvation", "rd wait p99.9", "MWRP"} {
		if !strings.Contains(out, want) {
			t.Fatalf("scenario output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "E7: native throughput") {
		t.Fatalf("-scenario must replace the classic pair:\n%s", out)
	}
}

func TestRunScenarioRejectsOversubFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-scenario", "throughput", "-oversub"}, &b); err == nil ||
		!strings.Contains(err.Error(), "oversub") {
		t.Fatalf("-oversub with -scenario must be rejected, got %v", err)
	}
}

func TestRunScenarioRejectsInapplicableOverrides(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-scenario", "rmr", "-locks", "MWSF"}, &b); err == nil ||
		!strings.Contains(err.Error(), "-locks") {
		t.Fatalf("-locks on a sim-only selection must be rejected, got %v", err)
	}
	if err := run([]string{"-scenario", "oversub", "-ops", "100"}, &b); err == nil ||
		!strings.Contains(err.Error(), "-ops") {
		t.Fatalf("-ops on a deadline-only selection must be rejected, got %v", err)
	}
	// But a mixed selection accepts them (they apply somewhere).
	if err := run([]string{"-quick", "-scenario", "starvation,rmr-dsm",
		"-locks", "MWSF"}, &b); err != nil {
		t.Fatalf("override applying to one of two scenarios rejected: %v", err)
	}
}

func TestRunScenarioUnknown(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-scenario", "nope"}, &b); err == nil ||
		!strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown scenario not rejected: %v", err)
	}
}

func TestRunScenarioAllJSONValidates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every scenario")
	}
	var b strings.Builder
	if err := run([]string{"-quick", "-json", "-scenario", "all"}, &b); err != nil {
		t.Fatal(err)
	}
	if err := validateReport([]byte(b.String())); err != nil {
		t.Fatalf("fresh -scenario all emission fails validation: %v", err)
	}
	var rep report
	if err := json.Unmarshal([]byte(b.String()), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != schemaVersion {
		t.Fatalf("schema_version = %d, want %d", rep.SchemaVersion, schemaVersion)
	}
	names := map[string]bool{}
	for _, sr := range rep.Scenarios {
		names[sr.Scenario.Name] = true
	}
	for _, want := range []string{"throughput", "priority", "oversub", "rmr",
		"bursty-writers", "starvation", "writer-churn", "latency-grid"} {
		if !names[want] {
			t.Fatalf("-scenario all missing %s (got %v)", want, names)
		}
	}
}

func TestRunScenarioMarkdownHasLatencyColumns(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-markdown", "-scenario", "bursty-writers",
		"-locks", "MWWP"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "| lock |") ||
		!strings.Contains(out, "wr wait p99.9") || !strings.Contains(out, "age p99") {
		t.Fatalf("markdown scenario table missing latency/age columns:\n%s", out)
	}
}

func TestValidateRejectsBadSchema(t *testing.T) {
	for name, raw := range map[string]string{
		"missing version": `{"gomaxprocs":1,"numcpu":1,"seed":1}`,
		"future version":  `{"schema_version":99,"gomaxprocs":1,"numcpu":1,"seed":1}`,
		"old version":     `{"schema_version":1,"gomaxprocs":1,"numcpu":1,"seed":1}`,
		"unknown field":   `{"schema_version":2,"gomaxprocs":1,"numcpu":1,"seed":1,"throughput":[{"lock":"MWSF","workers":1,"read_fraction":0.9,"ops_per_sec":1}],"wat":true}`,
		"empty report":    `{"schema_version":2,"gomaxprocs":1,"numcpu":1,"seed":1}`,
		"not json":        `]`,
	} {
		if err := validateReport([]byte(raw)); err == nil {
			t.Errorf("%s: validator accepted %s", name, raw)
		}
	}
}

// scenarioReport wraps one scenario's points in a minimal schema-2
// report, for validator tests that need full control of the fields.
func scenarioReport(scenario, points string) string {
	return `{"schema_version":2,"gomaxprocs":1,"numcpu":1,"seed":1,` +
		`"scenarios":[{"scenario":` + scenario +
		`,"seed":1,"gomaxprocs":1,"points":[` + points + `]}]}`
}

func TestValidateRetainedMemoryFields(t *testing.T) {
	const epochScenario = `{"name":"age-frontier","title":"t","cs_work":0,"think_work":0,"version_bytes":1024}`
	const bareScenario = `{"name":"throughput","title":"t","cs_work":0,"think_work":0}`
	good := `{"lock":"MWSF/epoch","workers":8,"read_fraction":0.95,"ops_per_sec":1,` +
		`"epoch_advances":10,"grace_waits":5,"retired_versions":40,` +
		`"reclaimed_versions":30,"retained_versions_max":12,"retained_bytes_max":12288}`
	if err := validateReport([]byte(scenarioReport(epochScenario, good))); err != nil {
		t.Fatalf("consistent retained-memory point rejected: %v", err)
	}
	for name, point := range map[string]string{
		"reclaimed exceeds retired": `{"lock":"MWSF/epoch","workers":8,"ops_per_sec":1,` +
			`"epoch_advances":10,"grace_waits":5,"retired_versions":4,"reclaimed_versions":5,"retained_versions_max":4}`,
		"high-water below residue": `{"lock":"MWSF/epoch","workers":8,"ops_per_sec":1,` +
			`"epoch_advances":10,"grace_waits":5,"retired_versions":40,"reclaimed_versions":10,"retained_versions_max":5}`,
		"retired without grace waits": `{"lock":"MWSF/epoch","workers":8,"ops_per_sec":1,` +
			`"retired_versions":4,"retained_versions_max":4}`,
	} {
		if err := validateReport([]byte(scenarioReport(epochScenario, point))); err == nil {
			t.Errorf("%s: validator accepted %s", name, point)
		}
	}
	// Retained counters on a scenario that never installed versions
	// are bookkeeping corruption, not a measurement.
	stray := `{"lock":"MWSF/epoch","workers":8,"ops_per_sec":1,` +
		`"epoch_advances":10,"grace_waits":5,"retired_versions":4,"retained_versions_max":4}`
	if err := validateReport([]byte(scenarioReport(bareScenario, stray))); err == nil {
		t.Error("validator accepted retained counters without version_bytes")
	}
	// Epoch advances alone (an /epoch lock swept without versioned
	// writes) are legitimate on any scenario.
	advancesOnly := `{"lock":"MWSF/epoch","workers":8,"ops_per_sec":1,` +
		`"epoch_advances":10,"grace_waits":5}`
	if err := validateReport([]byte(scenarioReport(bareScenario, advancesOnly))); err != nil {
		t.Errorf("epoch counters without retirement rejected: %v", err)
	}
}

func TestRunScenarioAgeFrontier(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "400", "-scenario", "age-frontier"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// The frontier's two halves must both be columns: update age and
	// retained memory.
	for _, col := range []string{"age p50", "age p99", "grace", "ret vers max", "ret bytes max"} {
		if !strings.Contains(out, col) {
			t.Errorf("age-frontier table missing %q column:\n%s", col, out)
		}
	}
	for _, lock := range []string{"MWSF", "Bravo(MWSF)", "MWSF/epoch", "MWSF/epoch/lazy64"} {
		if !strings.Contains(out, lock) {
			t.Errorf("age-frontier table missing %q row:\n%s", lock, out)
		}
	}
	// And the JSON emission must validate, retained fields included.
	var j strings.Builder
	if err := run([]string{"-quick", "-ops", "400", "-json", "-scenario", "age-frontier"}, &j); err != nil {
		t.Fatal(err)
	}
	if err := validateReport([]byte(j.String())); err != nil {
		t.Fatalf("age-frontier JSON report invalid: %v", err)
	}
	if !strings.Contains(j.String(), "retained_versions_max") {
		t.Fatalf("age-frontier JSON carries no retained-memory fields:\n%s", j.String())
	}
}

func TestValidateFlagOnFile(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-json", "-scenario", "starvation",
		"-locks", "MWSF"}, &b); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/rep.json"
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-validate", path}, &out); err != nil {
		t.Fatalf("validating a fresh report failed: %v", err)
	}
	if !strings.Contains(out.String(), "valid") {
		t.Fatalf("no confirmation: %s", out.String())
	}
	if err := run([]string{"-validate", t.TempDir() + "/nope.json"}, &out); err == nil {
		t.Fatal("missing file not rejected")
	}
}

func TestLegacyJSONCarriesSchemaVersion(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "200", "-workers", "2", "-json",
		"-locks", "MWSF"}, &b); err != nil {
		t.Fatal(err)
	}
	if err := validateReport([]byte(b.String())); err != nil {
		t.Fatalf("legacy-path emission fails validation: %v", err)
	}
}

func TestRunOversubTable(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "200", "-workers", "1",
		"-oversub", "-oversub-workers", "8", "-oversub-duration", "20ms",
		"-locks", "MWSF,MWSF/park"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "E12: oversubscribed throughput") {
		t.Fatalf("missing oversubscribed table:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "GOMAXPROCS=2") {
		t.Fatalf("oversub sweep did not pin GOMAXPROCS:\n%s", b.String())
	}
}

func TestParseFloatList(t *testing.T) {
	got, err := parseFloatList("0, 1.07,1.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1.07 || got[2] != 1.5 {
		t.Fatalf("parseFloatList = %v", got)
	}
	if _, err := parseFloatList("1.07,x"); err == nil {
		t.Fatal("expected error for non-number")
	}
}

// TestRunScenarioZipfGrid: the serving-tier scenario renders the
// sharded columns — stripe count, skew, bytes/lock, hot-key read
// rate — on every data row, and the -stripes/-skew overrides narrow
// the axes.
func TestRunScenarioZipfGrid(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-scenario", "zipf-grid",
		"-stripes", "4,16", "-skew", "1.07",
		"-locks", "SlimBravo,sync.RWMutex"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, col := range []string{"stripes", "zipf s", "B/lock", "hot rd/s", "age p50"} {
		if !strings.Contains(out, col) {
			t.Fatalf("zipf-grid table missing %q column:\n%s", col, out)
		}
	}
	// Shape check: every data row must carry both grid axes — a row
	// without a stripe count or skew means some cell bypassed the
	// sharded runner.
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "SlimBravo") && !strings.HasPrefix(line, "sync.RWMutex") {
			continue
		}
		rows++
		if !strings.Contains(line, "1.07") {
			t.Fatalf("row without skew column: %q", line)
		}
		fields := strings.Fields(line)
		if len(fields) < 6 || (fields[3] != "4" && fields[3] != "16") {
			t.Fatalf("row without overridden stripe count: %q", line)
		}
	}
	if rows != 4 { // 2 locks x 2 stripe counts x 1 skew
		t.Fatalf("zipf-grid rendered %d data rows, want 4:\n%s", rows, out)
	}
}

func TestRunScenarioZipfGridJSONValidates(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-json", "-scenario", "zipf-grid",
		"-stripes", "8", "-skew", "1.07", "-locks", "SlimEpoch"}, &b); err != nil {
		t.Fatal(err)
	}
	if err := validateReport([]byte(b.String())); err != nil {
		t.Fatalf("fresh zipf-grid emission fails validation: %v", err)
	}
	for _, field := range []string{`"stripes"`, `"zipf_s"`, `"bytes_per_lock"`, `"hot_read_ops"`} {
		if !strings.Contains(b.String(), field) {
			t.Fatalf("zipf-grid JSON missing %s:\n%s", field, b.String())
		}
	}
}

// TestRunRejectsShardedOverridesElsewhere: -stripes/-skew must be
// rejected — naming the sharded scenarios — when the selection has no
// stripe axis, when there is no -scenario at all, and when the value
// parses to nothing.
func TestRunRejectsShardedOverridesElsewhere(t *testing.T) {
	var b strings.Builder
	for name, args := range map[string][]string{
		"flat scenario": {"-scenario", "latency-grid", "-stripes", "4"},
		"classic path":  {"-skew", "1.07"},
	} {
		err := run(args, &b)
		if err == nil || !strings.Contains(err.Error(), "zipf-grid") {
			t.Fatalf("%s: error = %v, want rejection listing sharded scenarios", name, err)
		}
	}
	if err := run([]string{"-scenario", "zipf-grid", "-stripes", ","}, &b); err == nil ||
		!strings.Contains(err.Error(), "selects no stripe counts") {
		t.Fatalf("empty -stripes error = %v", err)
	}
	if err := run([]string{"-scenario", "zipf-grid", "-skew", ","}, &b); err == nil ||
		!strings.Contains(err.Error(), "selects no Zipf exponents") {
		t.Fatalf("empty -skew error = %v", err)
	}
}

func TestValidateShardedFields(t *testing.T) {
	const shardedScenario = `{"name":"zipf-grid","title":"t","cs_work":0,"think_work":0,"stripes":[4],"zipf_s":[1.07]}`
	const flatScenario = `{"name":"throughput","title":"t","cs_work":0,"think_work":0}`
	good := `{"lock":"SlimBravo","workers":8,"read_fraction":0.9,"ops_per_sec":1,` +
		`"read_ops":90,"write_ops":10,"stripes":4,"zipf_s":1.07,"bytes_per_lock":16,"hot_read_ops":40}`
	if err := validateReport([]byte(scenarioReport(shardedScenario, good))); err != nil {
		t.Fatalf("consistent sharded point rejected: %v", err)
	}
	for name, point := range map[string]string{
		"missing stripes": `{"lock":"SlimBravo","workers":8,"ops_per_sec":1,` +
			`"read_ops":90,"zipf_s":1.07,"bytes_per_lock":16}`,
		"missing bytes_per_lock": `{"lock":"SlimBravo","workers":8,"ops_per_sec":1,` +
			`"read_ops":90,"stripes":4,"zipf_s":1.07}`,
		"hot reads exceed reads": `{"lock":"SlimBravo","workers":8,"ops_per_sec":1,` +
			`"read_ops":90,"stripes":4,"zipf_s":1.07,"bytes_per_lock":16,"hot_read_ops":91}`,
	} {
		if err := validateReport([]byte(scenarioReport(shardedScenario, point))); err == nil {
			t.Errorf("%s: validator accepted %s", name, point)
		}
	}
	stray := `{"lock":"MWSF","workers":8,"ops_per_sec":1,"stripes":4,"bytes_per_lock":16}`
	if err := validateReport([]byte(scenarioReport(flatScenario, stray))); err == nil {
		t.Error("validator accepted sharded columns on a flat scenario")
	}
}

func TestRunOversubDefaultsToParkComparison(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "200", "-workers", "1", "-json",
		"-oversub", "-oversub-workers", "8", "-oversub-duration", "20ms"}, &b); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal([]byte(b.String()), &rep); err != nil {
		t.Fatal(err)
	}
	// Without -locks, the oversub sweep must use the spin-vs-park set,
	// not the spin-only E7 default.
	park := 0
	for _, p := range rep.Oversubscribed {
		if strings.HasSuffix(p.Lock, "/park") {
			park++
		}
	}
	if park == 0 {
		t.Fatalf("default -oversub sweep has no /park variants: %v", rep.OversubLocks)
	}
	if rep.OversubGOMAXPROCS != 2 {
		t.Fatalf("oversub GOMAXPROCS = %d, want pinned 2", rep.OversubGOMAXPROCS)
	}
}

// metricsReport wraps one scenario's points in a minimal schema-2
// report whose scenario result is flagged as a -metrics run.
func metricsReport(scenario, points string) string {
	return `{"schema_version":2,"gomaxprocs":1,"numcpu":1,"seed":1,` +
		`"scenarios":[{"scenario":` + scenario +
		`,"seed":1,"gomaxprocs":1,"metrics":true,"points":[` + points + `]}]}`
}

func TestValidateCounterFields(t *testing.T) {
	const flat = `{"name":"throughput","title":"t","cs_work":0,"think_work":0}`
	const base = `"lock":"MWSF","workers":4,"read_fraction":0.9,"ops_per_sec":1,"read_ops":90,"write_ops":10`
	good := `{` + base + `,"counters":{"read_acquires":90,"write_acquires":10,"read_contended":5}}`
	if err := validateReport([]byte(metricsReport(flat, good))); err != nil {
		t.Fatalf("consistent counter point rejected: %v", err)
	}
	// A row outside the stats seam (Slim, baselines, sync.RWMutex)
	// legitimately reports an all-zero block on a metrics run.
	zero := `{` + base + `,"counters":{}}`
	if err := validateReport([]byte(metricsReport(flat, zero))); err != nil {
		t.Fatalf("all-zero counter block rejected: %v", err)
	}
	for name, rep := range map[string]string{
		"metrics run without counters": metricsReport(flat, `{`+base+`}`),
		"counters without metrics":     scenarioReport(flat, good),
		"read acquires disagree with ops": metricsReport(flat,
			`{`+base+`,"counters":{"read_acquires":80,"write_acquires":10}}`),
		"write acquires disagree with ops": metricsReport(flat,
			`{`+base+`,"counters":{"read_acquires":90,"write_acquires":11}}`),
		"sheds disagree with ops": metricsReport(flat,
			`{`+base+`,"counters":{"read_acquires":90,"write_acquires":10,"ctx_sheds":3}}`),
		"incoherent block": metricsReport(flat,
			`{`+base+`,"counters":{"read_acquires":90,"write_acquires":10,"read_contended":91}}`),
	} {
		if err := validateReport([]byte(rep)); err == nil {
			t.Errorf("%s: validator accepted the report", name)
		}
	}
	// The counter block and the point's epoch columns are two
	// bookkeepers of one history; a disagreement is corruption.
	const epochScenario = `{"name":"age-frontier","title":"t","cs_work":0,"think_work":0,"version_bytes":1024}`
	mirrorBad := `{"lock":"MWSF/epoch","workers":8,"ops_per_sec":1,"read_ops":90,"write_ops":10,` +
		`"epoch_advances":10,"grace_waits":5,"retired_versions":40,` +
		`"reclaimed_versions":30,"retained_versions_max":12,` +
		`"counters":{"read_acquires":90,"write_acquires":10,"retired_versions":39,"reclaimed_versions":30}}`
	if err := validateReport([]byte(metricsReport(epochScenario, mirrorBad))); err == nil {
		t.Error("validator accepted counter reclamation disagreeing with the epoch columns")
	}
	// Counters never ride on simulator points.
	const simScenario = `{"name":"rmr","title":"t","cs_work":0,"think_work":0,` +
		`"sim":{"systems":["mwsf"],"attempts":1}}`
	simPoint := `{"system":"mwsf","writers":1,"readers":1,` +
		`"reader_rmr":{},"writer_rmr":{},"counters":{}}`
	if err := validateReport([]byte(scenarioReport(simScenario, simPoint))); err == nil {
		t.Error("validator accepted counters on a simulator point")
	}
}

func TestRunScenarioMetricsJSONValidates(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-json", "-metrics", "-ops", "400",
		"-scenario", "throughput,zipf-grid",
		"-locks", "MWSF,Bravo(MWSF),sync.RWMutex"}, &b); err != nil {
		t.Fatal(err)
	}
	if err := validateReport([]byte(b.String())); err != nil {
		t.Fatalf("fresh -metrics emission fails validation: %v", err)
	}
	var rep report
	if err := json.Unmarshal([]byte(b.String()), &rep); err != nil {
		t.Fatal(err)
	}
	instrumented, silent := 0, 0
	for _, sr := range rep.Scenarios {
		if !sr.Metrics {
			t.Fatalf("scenario %s: metrics bit not recorded", sr.Scenario.Name)
		}
		for i, p := range sr.Points {
			c := p.Counters
			if c == nil {
				t.Fatalf("scenario %s point %d: no counters on a -metrics run", sr.Scenario.Name, i)
			}
			switch {
			case c.ReadAcquires > 0 || c.WriteAcquires > 0:
				instrumented++
			case p.Lock == "sync.RWMutex":
				silent++ // outside the stats seam: documented all-zero block
			default:
				t.Fatalf("scenario %s point %d: lock %s recorded nothing", sr.Scenario.Name, i, p.Lock)
			}
		}
	}
	if instrumented == 0 {
		t.Fatal("no instrumented points recorded")
	}
	if silent == 0 {
		t.Fatal("no sync.RWMutex baseline points ran")
	}
}

func TestRunMetricsRequiresScenario(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-metrics"}, &b); err == nil ||
		!strings.Contains(err.Error(), "-metrics requires") {
		t.Fatalf("classic path accepted -metrics: %v", err)
	}
	if err := run([]string{"-quick", "-metrics", "-scenario", "rmr"}, &b); err == nil ||
		!strings.Contains(err.Error(), "-metrics applies to no selected scenario") {
		t.Fatalf("simulator-only selection accepted -metrics: %v", err)
	}
}
