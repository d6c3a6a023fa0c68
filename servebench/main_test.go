package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
)

// smoke returns sp shrunk to a test-sized key space and stripe grid.
func smoke(t *testing.T, name string) *spec {
	t.Helper()
	sp, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	s := *sp
	s.keys = 1 << 12
	s.stripes = min(s.stripes, 1<<8)
	s.setups, s.rounds = 2, 1
	return &s
}

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// lastLine parses the result line emit prints last.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return r
}

// declared returns the metric names and units BENCHMARK.json declares
// under key.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(doc[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestWorkloadsRunClean runs every workload at smoke size, untraced and
// traced, and checks that the oracle passes and that each run emits
// exactly the metrics BENCHMARK.json declares, with their units.
func TestWorkloadsRunClean(t *testing.T) {
	for _, w := range workloads {
		sp := smoke(t, w.name)
		streams := sp.streams(1, workers)
		for _, traced := range []bool{false, true} {
			out := newReport()
			want := declared(t, "end_to_end")
			if traced {
				layerRun(sp, streams, sliceDur, out)
				want = declared(t, "per_layer")
			} else {
				e2eRun(sp, streams, 2*sliceDur, out)
			}
			var buf bytes.Buffer
			ok := out.emit(&buf, sp, traced, provenance(1))
			r := lastLine(t, buf.String())
			if !ok || !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d; first: %s", sp.name, traced, r.Correct, r.Failed, r.Attempted, out.firstFail)
			}
			got := map[string]string{}
			for name, m := range r.Metrics {
				got[name] = m.Unit
			}
			if !maps.Equal(got, want) {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json declares %v", sp.name, traced, got, want)
			}
		}
	}
}

func TestWorkloadNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range doc.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
}

func TestStreamsDependOnSeedOnly(t *testing.T) {
	sp := smoke(t, "map-uniform-churn")
	a, b, c := sp.streams(7, workers), sp.streams(7, workers), sp.streams(8, workers)
	for w := range a {
		if !slices.Equal(a[w], b[w]) {
			t.Fatalf("worker %d: two streams from seed 7 differ", w)
		}
		if slices.Equal(a[w], c[w]) {
			t.Fatalf("worker %d: seeds 7 and 8 give the same stream", w)
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "guard-hot", "--trace", "2"},
		{"--workload", "guard-hot", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q; want a non-zero code and no result", args, code, out.String())
		}
	}
}
