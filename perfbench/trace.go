package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// tracePhase is the traced phase of a run. Around the measured work of
// each traced repetition it records a CPU profile and the changes of the
// obs registry and the runtime's CPU classes; around every layer call, the
// repetition's spans.
type tracePhase struct {
	dir, name string
	profiles  []string
	work      obsDelta
	rt        [3]float64 // gc, total and idle CPU seconds of the measured work
	spans     []*obs.SpanSnapshot
}

// traceRep records one traced repetition. A nil *traceRep records
// nothing, so untraced repetitions call the same methods.
type traceRep struct {
	s    *tracePhase
	root *obs.Span
}

func startTrace(dir, name string) (*tracePhase, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &tracePhase{dir: dir, name: name, work: newObsDelta(nil, nil)}, nil
}

func (s *tracePhase) rep() *traceRep { return &traceRep{s: s} }

// begin opens the repetition's root span.
func (t *traceRep) begin(name string) {
	if t != nil {
		t.root = obs.Default.StartDetachedSpan("perfbench:" + name)
	}
}

// child opens a span under the repetition's root (nil when untraced).
func (t *traceRep) child(name string) *obs.Span {
	if t == nil {
		return nil
	}
	return t.root.StartChild(name)
}

// end closes the root span and keeps its tree for the trace file.
func (t *traceRep) end() {
	if t == nil || t.root == nil {
		return
	}
	t.root.End()
	t.s.spans = append(t.s.spans, t.root.Snapshot())
	t.root = nil
}

// work starts recording the measured work of the repetition and returns
// the function that stops it.
func (t *traceRep) work() (stop func() error) {
	if t == nil {
		return func() error { return nil }
	}
	s := t.s
	path := filepath.Join(s.dir, fmt.Sprintf("%s.%d.cpu.pprof", s.name, len(s.profiles)))
	f, err := os.Create(path)
	if err != nil {
		return func() error { return err }
	}
	before := obs.Default.Snapshot()
	rt0 := readRuntime(rmGCCPU, rmTotalCPU, rmIdleCPU)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return func() error { return err }
	}
	return func() error {
		pprof.StopCPUProfile()
		rt := readRuntime(rmGCCPU, rmTotalCPU, rmIdleCPU)
		for i := range s.rt {
			s.rt[i] += rt[i] - rt0[i]
		}
		s.work.add(newObsDelta(before, obs.Default.Snapshot()))
		s.profiles = append(s.profiles, path)
		return f.Close()
	}
}

// traceResult is what the traced phase measured beyond its repetitions.
type traceResult struct {
	obs       obsDelta
	cpuShare  map[string]float64 // layer -> share of profiled CPU samples
	layerSelf map[string]float64 // layer -> profiled CPU seconds
	gcCPU     float64            // share of busy CPU time spent in GC
	spanFile  string
}

// stop writes the span trees as a Chrome trace file and buckets the
// merged CPU profiles by package.
func (s *tracePhase) stop() (*traceResult, error) {
	r := &traceResult{
		obs:      s.work,
		gcCPU:    ratio(s.rt[0], s.rt[1]-s.rt[2]),
		spanFile: filepath.Join(s.dir, s.name+".trace.json"),
	}
	blob, err := obs.TraceJSON(s.spans, nil)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(r.spanFile, blob, 0o644); err != nil {
		return nil, err
	}
	flat, err := profileFlat(s.profiles)
	if err != nil {
		return nil, err
	}
	r.layerSelf = map[string]float64{}
	total := 0.0
	for fn, sec := range flat {
		r.layerSelf[layerOf(fn)] += sec
		total += sec
	}
	r.cpuShare = map[string]float64{}
	for _, l := range cpuLayers {
		r.cpuShare[l] = ratio(r.layerSelf[l], total)
	}
	return r, nil
}

// profileFlat returns each function's flat (self) CPU seconds in the
// merged CPU profiles, as `go tool pprof -top` prints them.
func profileFlat(paths []string) (map[string]float64, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("no CPU profile recorded")
	}
	args := append([]string{"tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000"}, paths...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	flat := map[string]float64{}
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	table := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !table {
			table = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: unexpected line %q", sc.Text())
		}
		flat[strings.Join(f[5:], " ")] += ms / 1e3
	}
	return flat, sc.Err()
}

// layerOf maps a profiled function to the layer (package) it belongs to.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: the shape may hold paths
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		l, _, _ := strings.Cut(strings.TrimPrefix(pkg, "repro/internal/"), "/")
		for _, known := range cpuLayers {
			if l == known {
				return l
			}
		}
		return "other"
	case pkg == "main" || strings.HasPrefix(pkg, "repro/perfbench"):
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// obsDelta is the change of the obs registry over some stretches of work.
type obsDelta struct {
	counters map[string]float64
	timerSum map[string]float64 // seconds
	sampSum  map[string]float64
	sampN    map[string]float64
	hist     map[string][]int64 // per-bucket count deltas
}

// newObsDelta returns the change from snapshot a to b (empty for nil).
func newObsDelta(a, b *obs.SnapshotData) obsDelta {
	d := obsDelta{
		counters: map[string]float64{}, timerSum: map[string]float64{},
		sampSum: map[string]float64{}, sampN: map[string]float64{},
		hist: map[string][]int64{},
	}
	if a == nil || b == nil {
		return d
	}
	for n, v := range b.Counters {
		d.counters[n] = float64(v - a.Counters[n])
	}
	for n, t := range b.Timers {
		d.timerSum[n] = t.Sum - a.Timers[n].Sum
	}
	for n, s := range b.Samples {
		d.sampSum[n] = s.Sum - a.Samples[n].Sum
		d.sampN[n] = float64(s.Count - a.Samples[n].Count)
	}
	for n, h := range b.Histograms {
		old := a.Histograms[n].Buckets
		dh := make([]int64, len(h.Buckets))
		for i, c := range h.Buckets {
			dh[i] = c
			if i < len(old) {
				dh[i] -= old[i]
			}
		}
		d.hist[n] = dh
	}
	return d
}

// add accumulates another delta into d.
func (d obsDelta) add(o obsDelta) {
	for n, v := range o.counters {
		d.counters[n] += v
	}
	for n, v := range o.timerSum {
		d.timerSum[n] += v
	}
	for n, v := range o.sampSum {
		d.sampSum[n] += v
	}
	for n, v := range o.sampN {
		d.sampN[n] += v
	}
	for n, h := range o.hist {
		acc := d.hist[n]
		if len(acc) < len(h) {
			acc = append(acc, make([]int64, len(h)-len(acc))...)
		}
		for i, c := range h {
			acc[i] += c
		}
		d.hist[n] = acc
	}
}

// mean is the mean of a Sample's observations over the phase.
func (d obsDelta) mean(sample string) float64 { return ratio(d.sampSum[sample], d.sampN[sample]) }

// hitRatio is hits/(hits+misses) of two counters.
func (d obsDelta) hitRatio(hits, misses string) float64 {
	return ratio(d.counters[hits], d.counters[hits]+d.counters[misses])
}

// histQuantile estimates the q-quantile of a histogram's observations
// over the phase by interpolating inside the containing bucket.
func (d obsDelta) histQuantile(name string, q float64) float64 {
	b := d.hist[name]
	var total int64
	for _, n := range b {
		total += n
	}
	if total == 0 {
		return 0
	}
	bounds := obs.HistBounds()
	rank := q * float64(total)
	var cum int64
	for i, n := range b {
		prev := cum
		cum += n
		if n == 0 || float64(cum) < rank {
			continue
		}
		if i >= len(bounds) {
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		return lo + (bounds[i]-lo)*(rank-float64(prev))/float64(n)
	}
	return bounds[len(bounds)-1]
}

// perLayerReport assembles the traced run's metrics. plain holds the
// untraced repetitions of the same process, traced the traced ones.
func perLayerReport(w workload, g goldenEntry, plain, traced *samples, tr *traceResult, o options) (*report, error) {
	reps := float64(len(traced.reps))
	d := tr.obs
	attempted := plain.attempted + traced.attempted
	failed := plain.failed + traced.failed

	// The fingerprint: replayed cache counters and flops, and the
	// process-lifetime controller utilisation, against the golden entry.
	fp, err := w.replay()
	if err != nil {
		return nil, err
	}
	attempted++
	if !fp.sameStats(g.Fingerprint) || mcUtilMax() != g.Fingerprint.MCUtilMax {
		failed++
		fmt.Fprintf(o.summary, "%s: fingerprint mismatch: replay %+v, mc_util.max %v; golden %+v\n", w.name(), fp, mcUtilMax(), g.Fingerprint)
	}

	values := map[string]float64{
		"sparse.matrix_cache.hit_ratio": d.hitRatio("sparse.matrix_cache.hits", "sparse.matrix_cache.misses"),
		"sparse.profile.hit_ratio":      d.hitRatio("sparse.matrix_cache.profile_hits", "sparse.matrix_cache.profile_misses"),
		"cache.accesses":                float64(fp.Accesses),
		"cache.l1_hits":                 float64(fp.L1Hits),
		"cache.l2_hits":                 float64(fp.L2Hits),
		"cache.mem_fills":               float64(fp.MemFills),
		"cache.mem_writebacks":          float64(fp.MemWritebacks),
		"cache.ns_per_access":           ratio(tr.layerSelf["cache"]/reps*1e9, float64(fp.Accesses)),
		"trace.profiles_built":          d.counters["sim.pricing.profiles_built"] / reps,
		"trace.profiles_reused":         d.counters["sim.pricing.profiles_reused"] / reps,
		"sim.cells_exact":               d.counters["sim.pricing.cells_exact"] / reps,
		"sim.cells_analytic":            d.counters["sim.pricing.cells_analytic"] / reps,
		"sim.sweep.share":               ratio(d.counters["sim.sweep.machine_runs"], d.counters["sim.sweep.runs"]),
		"sim.ue_walk.busy_s":            d.timerSum["sim.ue_walk.task_seconds"] / reps,
		"sim.ue_walk.occupancy":         d.mean("sim.ue_walk.occupancy"),
		"sim.flops":                     d.counters["sim.flops.simulated"] / reps,
		"mem.mc_util.max":               mcUtilMax(),
		"experiments.cell.tasks":        d.counters["experiments.cell.tasks"] / reps,
		"experiments.cell.busy_s":       d.timerSum["experiments.cell.task_seconds"] / reps,
		"experiments.cell.occupancy":    d.mean("experiments.cell.occupancy"),
		"experiments.matrix.fetch_s":    d.timerSum["experiments.matrix.fetch_seconds"] / reps,
		"serve.queue_wait_s.p50":        d.histQuantile("serve.jobs.queue_wait_seconds", 0.50),
		"serve.queue_wait_s.p99":        d.histQuantile("serve.jobs.queue_wait_seconds", 0.99),
		"serve.exec_s.p50":              d.histQuantile("serve.jobs.exec_seconds", 0.50),
		"serve.exec_s.p99":              d.histQuantile("serve.jobs.exec_seconds", 0.99),
		"serve.store.hit_ratio":         d.hitRatio("serve.store.hits", "serve.store.misses"),
		"serve.jobs.coalesced":          d.counters["serve.jobs.coalesced"] / reps,
		"serve.jobs.rejected":           d.counters["serve.jobs.rejected"] / reps,
		"runtime.gc_cpu_share":          tr.gcCPU,
		"error_rate":                    ratio(float64(failed), float64(attempted)),
		"hit_s.p99":                     quantile(append(append([]float64(nil), plain.hits...), traced.hits...), 0.99),
		"hit_s.samples":                 float64(len(plain.hits) + len(traced.hits)),
		"miss_s.samples":                float64(len(plain.misses) + len(traced.misses)),
		"tracing.wall_s_untraced":       median(plain.walls()),
		"tracing.wall_s_traced":         median(traced.walls()),
	}
	values["tracing.overhead_share"] = values["tracing.wall_s_traced"]/values["tracing.wall_s_untraced"] - 1
	for _, l := range cpuLayers {
		values[l+".cpu_share"] = tr.cpuShare[l]
	}
	// Per-repetition layer timings measured by the workload's own spans
	// (medians over the traced repetitions); zero where a workload has no
	// such call.
	for _, def := range perLayer {
		var v []float64
		for _, r := range traced.reps {
			if x, ok := r.layer[def.name]; ok {
				v = append(v, x)
			}
		}
		if len(v) > 0 {
			values[def.name] = median(v)
		} else if _, ok := values[def.name]; !ok {
			values[def.name] = 0
		}
	}
	layerTable(o, w.name(), tr, values, reps)
	return finish(perLayer, values, attempted, failed)
}

// layerTable prints the layers' self CPU time per traced repetition beside
// the untraced and traced wall time.
func layerTable(o options, name string, tr *traceResult, v map[string]float64, reps float64) {
	fmt.Fprintf(o.summary, "%s: wall_s untraced %.4f, traced %.4f (tracing overhead %+.1f%%); %d traced repetitions\n",
		name, v["tracing.wall_s_untraced"], v["tracing.wall_s_traced"], 100*v["tracing.overhead_share"], int(reps))
	fmt.Fprintf(o.summary, "%-12s %12s %8s\n", "layer", "self cpu s", "share")
	for _, l := range cpuLayers {
		fmt.Fprintf(o.summary, "%-12s %12.4f %7.1f%%\n", l, tr.layerSelf[l]/reps, 100*tr.cpuShare[l])
	}
	fmt.Fprintf(o.summary, "spans: %s\n", tr.spanFile)
}
