package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
)

// tiny returns the workloads shrunk to a size a test can afford, with
// golden entries derived from the same reference paths the real ones use.
func tiny(t *testing.T) map[string]struct {
	w workload
	g goldenEntry
} {
	t.Helper()
	shrink := func(w sweepWorkload) sweepWorkload {
		w.scale, w.stride = 0.01, 16
		return w
	}
	sm := newServeMixed()
	var misses = sm.missPool[:0:0]
	for i := 0; i < len(sm.missPool); i += 6 {
		misses = append(misses, sm.missPool[i])
	}
	sm.missPool, sm.hits = misses, 12
	out := map[string]struct {
		w workload
		g goldenEntry
	}{}
	for _, w := range []workload{shrink(fig9Exact), shrink(l2geomAnalytic), shrink(formatsExact), sm} {
		g, err := w.makeGolden(io.Discard)
		if err != nil {
			t.Fatalf("%s: golden: %v", w.name(), err)
		}
		out[w.name()] = struct {
			w workload
			g goldenEntry
		}{w, g}
	}
	return out
}

func tinyOptions(t *testing.T, seed int64, traced bool) options {
	return options{seed: seed, traced: traced, outDir: t.TempDir(), summary: io.Discard, minHits: 1, minMisses: 1}
}

func metricNames(r *report) []string {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestEveryMetricEmittedWithUnit runs every workload at a tiny size,
// untraced and traced, and checks the result line carries exactly the
// declared metrics with their units and a passing correctness check.
func TestEveryMetricEmittedWithUnit(t *testing.T) {
	for name, tc := range tiny(t) {
		for _, traced := range []bool{false, true} {
			r, err := measure(tc.w, tc.g, tinyOptions(t, 7, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, d.name, m, d.unit)
				}
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, r.Correct, r.Attempted, r.Failed)
			}
			if !traced && r.Metrics["wall_s"].Value <= 0 {
				t.Errorf("%s: wall_s %v, want > 0", name, r.Metrics["wall_s"].Value)
			}
		}
	}
}

// TestNoWorkGuard checks that a run fails rather than reports when its
// workload did no work: a sweep whose selection qualifies no matrix
// renders an empty table, and an l2geom run forced exact prices no cell
// analytically.
func TestNoWorkGuard(t *testing.T) {
	empty := sweepWorkload{
		id: "cacheblock-empty", experiment: "ablation-cacheblock", scale: 0.01, stride: 16,
		guard: func(fingerprint, int) error { return nil },
	}
	exact := l2geomAnalytic
	exact.scale, exact.stride, exact.pricing = 0.01, 16, sim.PricingExact
	for _, w := range []sweepWorkload{empty, exact} {
		_, err := measure(w, goldenEntry{}, tinyOptions(t, 1, false))
		if err == nil || !strings.Contains(err.Error(), "no-work guard") {
			t.Errorf("%s: err = %v, want the no-work guard", w.id, err)
		}
	}
}

// TestSeedDrawsServeStream checks that the seed changes the serve job
// stream - its order and its resubmits - but neither the simulations it
// runs nor the set of metrics reported.
func TestSeedDrawsServeStream(t *testing.T) {
	s := newServeMixed()
	a := s.stream(&repCtx{rng: newRand(1)})
	b := s.stream(&repCtx{rng: newRand(2)})
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 1 and 2 drew the same job stream")
	}
	if !reflect.DeepEqual(a, s.stream(&repCtx{rng: newRand(1)})) {
		t.Fatal("seed 1 drew two different job streams")
	}
	misses := func(jobs []streamJob) []string {
		var keys []string
		for _, j := range jobs {
			if !j.wantHit {
				c, err := j.cfg.Canonical()
				if err != nil {
					t.Fatal(err)
				}
				keys = append(keys, c.Key())
			}
		}
		sort.Strings(keys)
		return keys
	}
	if !reflect.DeepEqual(misses(a), misses(b)) {
		t.Error("the seed changed which simulations the stream runs")
	}

	tc := tiny(t)["serve-mixed"]
	r1, err := measure(tc.w, tc.g, tinyOptions(t, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := measure(tc.w, tc.g, tinyOptions(t, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(metricNames(r1), metricNames(r2)) {
		t.Errorf("metric sets differ across seeds: %v vs %v", metricNames(r1), metricNames(r2))
	}
}

// TestBenchmarkJSONDeclaresTheMetrics keeps BENCHMARK.json and the
// metrics the benchmark emits in step.
func TestBenchmarkJSONDeclaresTheMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames())
	}
}

// TestLayerOf pins the package bucketing of profiled functions.
func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/cache.(*Cache).Access":                                "cache",
		"repro/internal/sim.runPass[go.shape.*repro/internal/sim.hierProber]": "sim",
		"repro/internal/trace.(*SetAnalyzer).Access":                          "trace",
		"runtime.mallocgc": "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"net/http.(*conn).serve":                       "other",
		"repro/internal/fault.(*Plan).CellError":       "other",
		"main.(*watcher).stop":                         "bench",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
