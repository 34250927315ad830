package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

// fingerprint is the deterministic simulated-statistics record of one
// repetition of a workload. A change that only speeds the simulator up
// must leave every field identical.
type fingerprint struct {
	// Cache-hierarchy counters summed over every sim.Result the
	// workload's cells return (replayed through the public sim entry
	// points).
	Accesses      uint64 `json:"cache.accesses"`
	L1Hits        uint64 `json:"cache.l1_hits"`
	L2Hits        uint64 `json:"cache.l2_hits"`
	MemFills      uint64 `json:"cache.mem_fills"`
	MemWritebacks uint64 `json:"cache.mem_writebacks"`
	// Obs-visible work counters (deltas of the obs registry).
	Flops          uint64 `json:"sim.flops"`
	CellsExact     uint64 `json:"sim.cells_exact"`
	CellsAnalytic  uint64 `json:"sim.cells_analytic"`
	ProfilesBuilt  uint64 `json:"trace.profiles_built"`
	ProfilesReused uint64 `json:"trace.profiles_reused"`
	// MCUtilMax is the largest per-controller utilisation the contention
	// model reported (a simulated statistic, recorded but not gated).
	MCUtilMax float64 `json:"mem.mc_util.max"`
}

// minus returns the obs counter deltas f - o.
func (f fingerprint) minus(o fingerprint) fingerprint {
	return fingerprint{
		Flops:          f.Flops - o.Flops,
		CellsExact:     f.CellsExact - o.CellsExact,
		CellsAnalytic:  f.CellsAnalytic - o.CellsAnalytic,
		ProfilesBuilt:  f.ProfilesBuilt - o.ProfilesBuilt,
		ProfilesReused: f.ProfilesReused - o.ProfilesReused,
	}
}

// counters reads the obs registry counters the guards and the
// fingerprint compare.
func counters() fingerprint {
	c := obs.Default.Snapshot().Counters
	return fingerprint{
		Flops:          c["sim.flops.simulated"],
		CellsExact:     c["sim.pricing.cells_exact"],
		CellsAnalytic:  c["sim.pricing.cells_analytic"],
		ProfilesBuilt:  c["sim.pricing.profiles_built"],
		ProfilesReused: c["sim.pricing.profiles_reused"],
	}
}

// sameWork compares the obs-visible work counters of one repetition.
func (f fingerprint) sameWork(g fingerprint) bool {
	return f.Flops == g.Flops && f.CellsExact == g.CellsExact && f.CellsAnalytic == g.CellsAnalytic &&
		f.ProfilesBuilt == g.ProfilesBuilt && f.ProfilesReused == g.ProfilesReused
}

// sameStats compares the replayed cache counters and flops.
func (f fingerprint) sameStats(g fingerprint) bool {
	return f.Accesses == g.Accesses && f.L1Hits == g.L1Hits && f.L2Hits == g.L2Hits &&
		f.MemFills == g.MemFills && f.MemWritebacks == g.MemWritebacks && f.Flops == g.Flops
}

// goldenEntry is the recorded truth for one workload.
type goldenEntry struct {
	// CSVSHA256 is the digest of a sweep's rendered CSV on the
	// Sequential exact reference engine (empty for serve-mixed, whose
	// results are checked against their first execution).
	CSVSHA256   string      `json:"csv_sha256,omitempty"`
	Fingerprint fingerprint `json:"fingerprint"`
}

//go:embed golden.json
var goldenJSON []byte

func embeddedGolden() map[string]goldenEntry {
	m := map[string]goldenEntry{}
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: embedded golden.json: %v", err))
	}
	return m
}

// writeGolden recomputes w's golden entry and stores it in path, keeping
// the other workloads' entries. Run it once per workload, each in its own
// process, because mem.mc_util.max is a process-lifetime maximum.
func writeGolden(w workload, path string, log io.Writer) error {
	g, err := w.makeGolden(log)
	if err != nil {
		return err
	}
	m := map[string]goldenEntry{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &m); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	m[w.name()] = g
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// makeGolden renders the Sequential oracle, checks the benchmark's own
// engine settings reproduce it byte for byte, and records the fingerprint.
func (w sweepWorkload) makeGolden(log io.Writer) (goldenEntry, error) {
	want, err := w.oracle()
	if err != nil {
		return goldenEntry{}, fmt.Errorf("oracle: %w", err)
	}
	x, err := w.execute(w.setup(&repCtx{rng: newRand(1)}).mc, nil)
	if err != nil {
		return goldenEntry{}, err
	}
	if x.out.CSV != want || x.out.Failed > 0 {
		return goldenEntry{}, fmt.Errorf("the measured engine settings do not reproduce the Sequential oracle")
	}
	if err := w.guard(x.work, len(w.entries())); err != nil {
		return goldenEntry{}, err
	}
	fp, err := w.replay()
	if err != nil {
		return goldenEntry{}, err
	}
	if fp.Flops != x.work.Flops {
		return goldenEntry{}, fmt.Errorf("replay priced %d flops, the experiment %d: the replayed grid differs from the experiment's", fp.Flops, x.work.Flops)
	}
	fp.CellsExact, fp.CellsAnalytic = x.work.CellsExact, x.work.CellsAnalytic
	fp.ProfilesBuilt, fp.ProfilesReused = x.work.ProfilesBuilt, x.work.ProfilesReused
	fp.MCUtilMax = mcUtilMax()
	fmt.Fprintf(log, "%s: csv %s, %d accesses, %d flops\n", w.id, digest(want)[:12], fp.Accesses, fp.Flops)
	return goldenEntry{CSVSHA256: digest(want), Fingerprint: fp}, nil
}
