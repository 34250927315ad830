package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// sweepWorkload runs one registered experiment over a testbed selection.
// Every repetition starts from a fresh matrix cache: the set-up generates
// the selection into it through sparse.MatrixCache.Get, so the sweep
// itself always finds warm matrices and a cold profile store.
//
// The seed permutes the set-up's generation order and draws the matrices
// of the cache-hit bursts; it never changes the experiment's inputs, so the
// rendered CSV must match the golden digest for every seed.
type sweepWorkload struct {
	id         string
	experiment string
	scale      float64
	stride     int
	pricing    sim.Pricing
	// guard rejects a repetition whose counter deltas show the
	// workload did not do the work it exists to measure.
	guard func(d fingerprint, matrices int) error
}

// Parallelism of every engine pool: the host has two CPUs.
const hostWorkers = 2

var (
	fig9Exact = sweepWorkload{
		id: "fig9-exact", experiment: "fig9", scale: 0.1, stride: 1,
		guard: func(d fingerprint, _ int) error {
			if d.CellsAnalytic != 0 {
				return fmt.Errorf("no-work guard: %d cells priced analytically, want every cell exact", d.CellsAnalytic)
			}
			if d.CellsExact == 0 {
				return fmt.Errorf("no-work guard: no exact cell simulated")
			}
			return nil
		},
	}
	l2geomAnalytic = sweepWorkload{
		id: "l2geom-analytic", experiment: "ablation-l2geom", scale: 0.1, stride: 1,
		guard: func(d fingerprint, matrices int) error {
			if d.CellsAnalytic == 0 {
				return fmt.Errorf("no-work guard: no cell priced analytically")
			}
			if d.ProfilesBuilt != uint64(matrices) {
				return fmt.Errorf("no-work guard: %d reuse profiles built for %d matrices, want one per matrix", d.ProfilesBuilt, matrices)
			}
			return nil
		},
	}
	formatsExact = sweepWorkload{
		id: "formats-exact", experiment: "ablation-formats", scale: 0.1, stride: 1,
		guard: func(d fingerprint, _ int) error {
			if d.Flops == 0 {
				return fmt.Errorf("no-work guard: no CSR cell simulated")
			}
			return nil
		},
	}
)

func (w sweepWorkload) name() string { return w.id }

// entries is the testbed selection, in the order the experiment walks it.
func (w sweepWorkload) entries() []sparse.TestbedEntry {
	return selectEntries(w.stride, 0)
}

// selectEntries mirrors experiments.Config's Stride/MaxMatrices subset.
func selectEntries(stride, max int) []sparse.TestbedEntry {
	tb := sparse.Testbed()
	if stride < 1 {
		stride = 1
	}
	var out []sparse.TestbedEntry
	for i := 0; i < len(tb); i += stride {
		out = append(out, tb[i])
	}
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

func (w sweepWorkload) config(mc *sparse.MatrixCache) experiments.Config {
	return experiments.Config{
		Scale:       w.scale,
		Stride:      w.stride,
		Parallelism: hostWorkers,
		Pricing:     w.pricing,
		MatrixCache: mc,
	}
}

// sweepSetup is one set-up: the selection generated into a fresh cache.
type sweepSetup struct {
	mc     *sparse.MatrixCache
	took   time.Duration // the generating Gets
	misses []float64     // one generating Get each, seconds
	hits   []float64     // one burst of resident Gets each, seconds per Get
	nnz    int
	// wrongHits counts resident Gets that did not return the matrix the
	// set-up generated.
	wrongHits int
}

// hitBurst is the number of Gets one hit sample averages. A single Get of
// a resident matrix takes 60 to 125 ns on the test host, so one timed call
// reads mostly clock and host-cache noise; a burst reads the lookup.
const hitBurst = 16

// hitBurstsPerSetup spreads the hit floor over the set-ups of one run.
// The miss floor makes every run hold at least minMissSamples/32 = 8
// set-ups of the 32-matrix testbed, so 125 bursts per set-up hold
// minHitSamples without a top-up of their own.
func hitBurstsPerSetup() int {
	setups := minMissSamples / len(sparse.Testbed())
	return (minHitSamples + setups - 1) / setups
}

// setup generates the selection into a fresh cache in a seeded order,
// timing each Get (the miss samples). Then, outside both setup_s and the
// measured sweep, it times bursts of Gets of the now-resident matrices,
// drawn by the seed (the hit samples).
func (w sweepWorkload) setup(rc *repCtx) sweepSetup {
	entries := w.entries()
	su := sweepSetup{mc: sparse.NewMatrixCache(experiments.DefaultMatrixCacheBytes)}
	resident := make([]*sparse.CSR, len(entries))
	sp := rc.tr.child("setup")
	start := time.Now()
	for _, i := range rc.rng.Perm(len(entries)) {
		t0 := time.Now()
		a := su.mc.Get(entries[i], w.scale)
		d := time.Since(t0)
		sp.Record("sparse.MatrixCache.Get", d)
		su.misses = append(su.misses, d.Seconds())
		su.nnz += a.NNZ()
		resident[i] = a
	}
	su.took = time.Since(start)
	var burst [hitBurst]int
	for b := hitBurstsPerSetup(); b > 0; b-- {
		for k := range burst {
			burst[k] = rc.rng.Intn(len(entries))
		}
		t0 := time.Now()
		for _, i := range burst {
			if su.mc.Get(entries[i], w.scale) != resident[i] {
				su.wrongHits++
			}
		}
		d := time.Since(t0)
		sp.Record("sparse.MatrixCache.Get(resident)", d)
		su.hits = append(su.hits, d.Seconds()/hitBurst)
	}
	sp.End()
	return su
}

func (w sweepWorkload) rep(rc *repCtx) (repSample, error) {
	rc.tr.begin(w.id)
	defer rc.tr.end()
	su := w.setup(rc)
	stopWork := rc.tr.work()
	watch := startWatch()
	x, err := w.execute(su.mc, rc.tr)
	alloc, peak := watch.stop()
	werr := stopWork()
	if err != nil {
		return repSample{}, err
	}
	if werr != nil {
		return repSample{}, werr
	}
	if err := w.guard(x.work, len(w.entries())); err != nil {
		return repSample{}, err
	}
	s := repSample{
		setup: su.took, wall: x.wall, allocB: alloc, heapPeakB: peak,
		jobs: len(w.entries()), hits: su.hits, misses: su.misses,
		attempted: 1, fp: x.work,
	}
	if rc.tr != nil {
		s.layer = map[string]float64{
			"sparse.gen_s":   sumSeconds(su.misses),
			"sparse.gen_nnz": float64(su.nnz),
			"stats.render_s": renderTime(x.out.Tables, rc.tr).Seconds(),
		}
	}
	if su.wrongHits > 0 || x.out.Failed > 0 || digest(x.out.CSV) != rc.golden.CSVSHA256 || !x.work.sameWork(rc.golden.Fingerprint) {
		s.failed = 1
	}
	return s, nil
}

// execution is one sweep run on warm matrices.
type execution struct {
	out  *experiments.RunOutput
	wall time.Duration
	work fingerprint // obs counter deltas
}

// execute runs the experiment through experiments.ExecuteByID, the path
// cmd/sccsim and the daemon use, on the matrices in mc, timing it. It
// fails on an engine error and on an empty table.
func (w sweepWorkload) execute(mc *sparse.MatrixCache, tr *traceRep) (execution, error) {
	cfg := w.config(mc)
	before := counters()
	t0 := time.Now()
	cfg.Span = tr.child("experiments.ExecuteByID")
	out, err := experiments.ExecuteByID(w.experiment, cfg)
	cfg.Span.End()
	x := execution{out: out, wall: time.Since(t0)}
	x.work = counters().minus(before)
	if err != nil {
		return x, err
	}
	return x, nonEmpty(out.Tables)
}

// renderTime times rendering the tables as text and CSV, the stats calls
// ExecuteByID makes, outside the measured sweep (traced repetitions only).
func renderTime(tables []*stats.Table, tr *traceRep) time.Duration {
	sp := tr.child("stats.Table.render")
	defer sp.End()
	t0 := time.Now()
	for _, t := range tables {
		_ = t.String()
		_ = t.CSV()
	}
	return time.Since(t0)
}

// topUp runs extra set-ups until the run holds minMisses generation
// samples and minHits hit samples.
func (w sweepWorkload) topUp(rc *repCtx, s *samples, minHits, minMisses int) error {
	for len(s.misses) < minMisses || len(s.hits) < minHits {
		su := w.setup(rc)
		if su.wrongHits > 0 {
			s.failed++
		}
		s.attempted++
		s.setups = append(s.setups, su.took.Seconds())
		s.misses = append(s.misses, su.misses...)
		s.addHits(su.hits)
	}
	return nil
}

// nonEmpty is the empty-table trap of the no-work guard: a sweep whose
// selection qualified no matrix renders a table without rows.
func nonEmpty(tables []*stats.Table) error {
	if len(tables) == 0 {
		return fmt.Errorf("no-work guard: no table rendered")
	}
	for _, t := range tables {
		if t.Rows() == 0 {
			return fmt.Errorf("no-work guard: an empty table was rendered (no qualifying matrix)")
		}
	}
	return nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func sumSeconds(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// oracle renders the experiment on the Sequential exact reference engine
// with memoisation disabled: the golden output of every sweep.
func (w sweepWorkload) oracle() (string, error) {
	cfg := w.config(sparse.NewMatrixCache(0))
	cfg.Parallelism = 1
	cfg.Sequential = true
	cfg.Pricing = sim.PricingExact
	out, err := experiments.ExecuteByID(w.experiment, cfg)
	if err != nil {
		return "", err
	}
	if err := nonEmpty(out.Tables); err != nil {
		return "", err
	}
	return out.CSV, nil
}
