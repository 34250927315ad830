package main

import (
	"math"
	"sort"
)

// endToEnd lists the metrics an untraced run (-trace 0) reports, with
// their units. BENCHMARK.json declares the same names and units; the
// self-tests keep the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"accesses_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"heap_peak_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"hit_s.p50", "s"},
	{"hit_s.p90", "s"},
	{"miss_s.p50", "s"},
	{"miss_s.p90", "s"},
}

// cpuLayers are the packages a CPU profile sample is attributed to by its
// leaf function (see layerOf). Each yields a "<layer>.cpu_share" metric.
var cpuLayers = []string{
	"sparse", "cache", "trace", "sim", "mem", "partition", "experiments",
	"stats", "serve", "rcce", "spmv", "scc", "obs", "runtime", "bench", "other",
}

// perLayer lists the metrics a traced run (-trace 1) reports. Counts and
// times are per repetition unless the name says otherwise.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sparse.gen_s", "s"},
		{"sparse.gen_nnz", "count"},
		{"sparse.matrix_cache.hit_ratio", "ratio"},
		{"sparse.profile.hit_ratio", "ratio"},
		{"cache.ns_per_access", "ns"},
		{"cache.accesses", "count"},
		{"cache.l1_hits", "count"},
		{"cache.l2_hits", "count"},
		{"cache.mem_fills", "count"},
		{"cache.mem_writebacks", "count"},
		{"trace.profiles_built", "count"},
		{"trace.profiles_reused", "count"},
		{"sim.cells_exact", "count"},
		{"sim.cells_analytic", "count"},
		{"sim.sweep.share", "ratio"},
		{"sim.ue_walk.busy_s", "s"},
		{"sim.ue_walk.occupancy", "count"},
		{"sim.flops", "count"},
		{"mem.mc_util.max", "ratio"},
		{"experiments.cell.tasks", "count"},
		{"experiments.cell.busy_s", "s"},
		{"experiments.cell.occupancy", "count"},
		{"experiments.matrix.fetch_s", "s"},
		{"stats.render_s", "s"},
		{"serve.queue_wait_s.p50", "s"},
		{"serve.queue_wait_s.p99", "s"},
		{"serve.exec_s.p50", "s"},
		{"serve.exec_s.p99", "s"},
		{"serve.http_s.p50", "s"},
		{"serve.http_s.p99", "s"},
		{"serve.store.hit_ratio", "ratio"},
		{"serve.jobs.coalesced", "count"},
		{"serve.jobs.rejected", "count"},
		{"runtime.gc_cpu_share", "share"},
		{"hit_s.p99", "s"},
		{"error_rate", "ratio"},
		{"hit_s.samples", "count"},
		{"miss_s.samples", "count"},
		{"tracing.wall_s_untraced", "s"},
		{"tracing.wall_s_traced", "s"},
		{"tracing.overhead_share", "share"},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "share"})
	}
	return defs
}()

type metricDef struct{ name, unit string }

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result: the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the metric map for defs from values, failing on a name
// defs declares but values lack: a run never reports a partial set.
func fill(defs []metricDef, values map[string]float64) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, missing
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of v by the nearest-rank method, so the
// reported value is always one of the samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
