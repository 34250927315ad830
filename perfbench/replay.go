package main

import (
	"fmt"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/sparse"
)

// The replay re-prices a workload's simulation cells through the public
// sim entry points to collect the cache-hierarchy counters the rendered
// tables do not carry. Each grid below restates one experiment's cells;
// the flops it prices must equal the experiment's sim.flops.simulated
// delta, which catches a replay that drifted from the experiment.

// cell is one simulator configuration of an experiment grid.
type cell struct {
	machines []*sim.Machine
	opts     sim.Options
}

func conf0() *sim.Machine { return sim.NewMachine(scc.Conf0) }

func distCell(m *sim.Machine, cores int) cell {
	return cell{[]*sim.Machine{m}, sim.Options{Mapping: scc.DistanceReductionMapping(cores)}}
}

// grid returns the cells experiment id runs on every selected matrix.
// rcce-scaling runs the executable runtime and prices no cache access.
func grid(id string) ([]cell, error) {
	var cells []cell
	switch id {
	case "fig3":
		for h := 0; h < 4; h++ {
			cells = append(cells, cell{[]*sim.Machine{conf0()}, sim.Options{Mapping: scc.Mapping{scc.CoresWithHops(h)[0]}}})
		}
	case "fig5":
		for _, n := range experiments.CoreCounts {
			cells = append(cells,
				cell{[]*sim.Machine{conf0()}, sim.Options{Mapping: scc.StandardMapping(n)}},
				distCell(conf0(), n))
		}
	case "fig6":
		for _, n := range []int{8, 24, 48} {
			cells = append(cells, distCell(conf0(), n))
		}
	case "fig8":
		for _, n := range []int{8, 24, 48} {
			nox := distCell(conf0(), n)
			nox.opts.Variant = sim.KernelNoXMiss
			cells = append(cells, distCell(conf0(), n), nox)
		}
	case "fig9":
		ms := []*sim.Machine{sim.NewMachine(scc.Conf0), sim.NewMachine(scc.Conf1), sim.NewMachine(scc.Conf2)}
		for _, n := range experiments.CoreCounts {
			cells = append(cells, cell{ms, sim.Options{Mapping: scc.DistanceReductionMapping(n)}})
		}
	case "ablation-l2geom":
		for _, kb := range []int{64, 128, 256, 512, 1024} {
			for _, ways := range []int{2, 4, 8} {
				m := conf0()
				m.L2Geom = &cache.Config{
					SizeBytes: kb << 10, LineBytes: scc.CacheLineBytes, Ways: ways,
					WriteBack: true, Replacement: cache.TrueLRU,
				}
				cells = append(cells, distCell(m, 24))
			}
		}
	case "rcce-scaling":
	default:
		return nil, fmt.Errorf("no replay grid for experiment %s", id)
	}
	return cells, nil
}

// add accumulates a result's cache counters.
func (f *fingerprint) add(r *sim.Result) {
	for _, c := range r.PerCore {
		f.Accesses += c.Cache.Accesses
		f.L1Hits += c.Cache.L1Hits
		f.L2Hits += c.Cache.L2Hits
		f.MemFills += c.Cache.MemLineFills
		f.MemWritebacks += c.Cache.MemWriteBacks
	}
}

// replayGrid prices every cell of experiment id on the selection at
// scale, sharing one matrix and profile store like the experiment does.
func replayGrid(id string, scale float64, entries []sparse.TestbedEntry, mc *sparse.MatrixCache) (fingerprint, error) {
	var fp fingerprint
	cells, err := grid(id)
	if err != nil {
		return fp, err
	}
	if id == "rcce-scaling" {
		return fp, nil
	}
	for _, e := range entries {
		a := mc.Get(e, scale)
		for _, c := range cells {
			opts := c.opts
			opts.Parallelism = hostWorkers
			opts.Profiles = mc
			rs, err := sim.RunSpMVSweep(c.machines, a, nil, opts)
			if err != nil {
				return fp, fmt.Errorf("replaying %s on %s: %w", id, e.Name, err)
			}
			for _, r := range rs {
				fp.add(r)
			}
			fp.Flops += uint64(len(c.machines)) * uint64(2*a.NNZ())
		}
	}
	return fp, nil
}

// replayFormats restates ablation-formats: the CSR cell plus the ELL,
// BCSR 2x2, DIA and HYB walks under the experiment's gating. Only the CSR
// cell reaches sim.flops.simulated; the format walks bypass it.
func replayFormats(scale float64, entries []sparse.TestbedEntry, mc *sparse.MatrixCache) (fingerprint, error) {
	var fp fingerprint
	m := conf0()
	const cores = 24
	for _, e := range entries {
		a := mc.Get(e, scale)
		csr, err := m.RunSpMV(a, nil, sim.Options{Mapping: scc.DistanceReductionMapping(cores)})
		if err != nil {
			return fp, err
		}
		fp.add(csr)
		fp.Flops += uint64(2 * a.NNZ())
		var rs []*sim.Result
		if ell, err := sparse.ToELL(a, 3); err == nil {
			r, err := m.RunELL(ell, cores)
			if err != nil {
				return fp, err
			}
			rs = append(rs, r)
		}
		r, err := m.RunBCSR(sparse.ToBCSR(a, 2, 2), cores)
		if err != nil {
			return fp, err
		}
		rs = append(rs, r)
		if d, err := sparse.ToDIA(a, 512); err == nil {
			r, err := m.RunDIA(d, cores)
			if err != nil {
				return fp, err
			}
			rs = append(rs, r)
		}
		if h, err := sparse.ToHYB(a, 0.66); err == nil {
			r, err := m.RunHYB(h, cores)
			if err != nil {
				return fp, err
			}
			rs = append(rs, r)
		}
		for _, r := range rs {
			fp.add(r)
		}
	}
	return fp, nil
}

func (w sweepWorkload) replay() (fingerprint, error) {
	mc := sparse.NewMatrixCache(experiments.DefaultMatrixCacheBytes)
	if w.experiment == "ablation-formats" {
		return replayFormats(w.scale, w.entries(), mc)
	}
	return replayGrid(w.experiment, w.scale, w.entries(), mc)
}

// mcUtilMax is the largest memory-controller utilisation the contention
// model has reported in this process.
func mcUtilMax() float64 {
	s := obs.Default.Snapshot().Samples
	max := 0.0
	for _, n := range []string{"mem.mc0.utilization", "mem.mc1.utilization", "mem.mc2.utilization", "mem.mc3.utilization", "mem.mc_other.utilization"} {
		if st, ok := s[n]; ok && st.Count > 0 && st.Max > max {
			max = st.Max
		}
	}
	return max
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
