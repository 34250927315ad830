package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// serveMixed drives an in-process serve.Server on a loopback listener
// with a closed loop of two HTTP clients. Each repetition starts a fresh
// daemon, seeds its result store with the hit pool (the set-up), then
// plays one job stream: every miss-pool configuration once, executed and
// stored, interleaved with resubmits of the hit pool, which are born-done
// store reads. The seed draws the resubmits and the order of the stream;
// every seed runs the same multiset of simulations.
type serveMixed struct {
	hitPool  []serve.JobConfig
	missPool []serve.JobConfig
	hits     int // resubmits per stream

	mu   sync.Mutex
	refs map[string]string // result hash -> CSV digest of its first execution
}

// clients is the closed loop's width: one connection per host CPU.
const clients = 2

// Resubmits per stream. No recorded traffic fixes the hit/miss mix, so it
// follows from the sample floors instead: a stream's wall time is set by
// its 36 executed jobs on the single worker (2.2-3.6 s on the 2-vCPU test
// host, plus about 0.35 s of set-up), so a 25 s run plays about
// streamsPerRun streams, and minHitSamples spread over them is 125
// resubmits per stream. A run that plays fewer streams tops up. The mix is
// then 125 store hits to 36 executed jobs per stream.
const (
	streamsPerRun = 8
	hitsPerStream = (minHitSamples + streamsPerRun - 1) / streamsPerRun
)

// serveFamilies are the experiments the fresh jobs cover; rcce-scaling
// runs on the virtual-time DES engine.
var serveFamilies = []string{"fig3", "fig5", "fig6", "fig8", "ablation-l2geom", "rcce-scaling"}

func newServeMixed() *serveMixed {
	s := &serveMixed{hits: hitsPerStream, refs: map[string]string{}}
	type sel struct {
		scale       float64
		stride, max int
	}
	small := []sel{{0.01, 8, 1}, {0.01, 8, 2}, {0.01, 16, 2}, {0.02, 8, 1}, {0.02, 8, 2}, {0.02, 16, 2}}
	// fig5 runs 16 cells per matrix; it stays at the smaller scale.
	fig5 := []sel{{0.01, 8, 1}, {0.01, 8, 2}, {0.01, 16, 2}, {0.01, 4, 1}, {0.01, 4, 2}, {0.01, 16, 1}}
	for _, f := range serveFamilies {
		job := func(v sel) serve.JobConfig {
			c := serve.JobConfig{Experiment: f, Scale: v.scale, Stride: v.stride, MaxMatrices: v.max, Parallelism: 1}
			if f == "rcce-scaling" {
				c.Engine = "des"
			}
			return c
		}
		s.hitPool = append(s.hitPool, job(sel{0.01, 32, 0}))
		vs := small
		if f == "fig5" {
			vs = fig5
		}
		for _, v := range vs {
			s.missPool = append(s.missPool, job(v))
		}
	}
	return s
}

func (s *serveMixed) name() string { return "serve-mixed" }

// streamJob is one submission of the stream.
type streamJob struct {
	cfg     serve.JobConfig
	wantHit bool
}

// stream draws one repetition's job stream from the seed.
func (s *serveMixed) stream(rc *repCtx) []streamJob {
	jobs := make([]streamJob, 0, len(s.missPool)+s.hits)
	for _, c := range s.missPool {
		jobs = append(jobs, streamJob{cfg: c})
	}
	for i := 0; i < s.hits; i++ {
		jobs = append(jobs, streamJob{cfg: s.hitPool[rc.rng.Intn(len(s.hitPool))], wantHit: true})
	}
	rc.rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

func (s *serveMixed) rep(rc *repCtx) (repSample, error) {
	rc.tr.begin(s.name())
	defer rc.tr.end()
	jobs := s.stream(rc)

	t0 := time.Now()
	setupSp := rc.tr.child("setup")
	d, err := startDaemon()
	if err != nil {
		return repSample{}, err
	}
	defer d.stop()
	seedFailed := 0
	for _, c := range s.hitPool {
		r := d.do(c, setupSp)
		if r.err != nil {
			return repSample{}, fmt.Errorf("seeding the hit pool: %w", r.err)
		}
		if r.hit || !s.check(r) {
			seedFailed++
		}
	}
	setup := time.Since(t0)
	setupSp.End()

	before := counters()
	stopWork := rc.tr.work()
	watch := startWatch()
	sp := rc.tr.child("stream")
	results := make([]jobResult, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t1 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		//sccvet:allow bare-goroutine closed-loop load clients, joined before the stream is measured
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				results[i] = d.do(jobs[i].cfg, sp)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t1)
	sp.End()
	alloc, peak := watch.stop()
	werr := stopWork()
	work := counters().minus(before)
	if werr != nil {
		return repSample{}, werr
	}

	out := repSample{setup: setup, wall: wall, allocB: alloc, heapPeakB: peak,
		attempted: len(s.hitPool) + len(jobs), failed: seedFailed, fp: work}
	var http []float64
	for i, r := range results {
		if r.err != nil || r.hit != jobs[i].wantHit || !s.check(r) {
			out.failed++
			continue
		}
		out.jobs++
		http = append(http, r.http)
		if r.hit {
			out.hits = append(out.hits, r.latency)
		} else {
			out.misses = append(out.misses, r.latency)
		}
	}
	if len(out.hits) == 0 || len(out.misses) == 0 {
		return repSample{}, fmt.Errorf("no-work guard: the stream completed %d hits and %d misses, want both", len(out.hits), len(out.misses))
	}
	if !work.sameWork(rc.golden.Fingerprint) {
		out.failed++
		out.workMismatch = true
	}
	out.layer = map[string]float64{
		"serve.http_s.p50": quantile(http, 0.50),
		"serve.http_s.p99": quantile(http, 0.99),
	}
	return out, nil
}

// check compares a fetched result with the first execution of its
// configuration in this process, recording it when it is the first.
func (s *serveMixed) check(r jobResult) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	want, ok := s.refs[r.hash]
	if !ok {
		s.refs[r.hash] = r.digest
		return true
	}
	return want == r.digest
}

// topUp plays further repetitions until the run holds enough samples for
// its percentiles.
func (s *serveMixed) topUp(rc *repCtx, acc *samples, minHits, minMisses int) error {
	for len(acc.hits) < minHits || len(acc.misses) < minMisses {
		r, err := s.rep(rc)
		if err != nil {
			return err
		}
		acc.add(r)
	}
	return nil
}

// replay prices the miss pool, the stream's only simulations.
func (s *serveMixed) replay() (fingerprint, error) {
	var fp fingerprint
	mc := sparse.NewMatrixCache(experiments.DefaultMatrixCacheBytes)
	for _, c := range s.missPool {
		f, err := replayGrid(c.Experiment, c.Scale, selectEntries(c.Stride, c.MaxMatrices), mc)
		if err != nil {
			return fp, err
		}
		fp.Accesses += f.Accesses
		fp.L1Hits += f.L1Hits
		fp.L2Hits += f.L2Hits
		fp.MemFills += f.MemFills
		fp.MemWritebacks += f.MemWritebacks
		fp.Flops += f.Flops
	}
	return fp, nil
}

// makeGolden plays one repetition and records its work counters beside
// the replayed statistics of the miss pool.
func (s *serveMixed) makeGolden(log io.Writer) (goldenEntry, error) {
	r, err := s.rep(&repCtx{rng: newRand(1)})
	if err != nil {
		return goldenEntry{}, err
	}
	if r.failed != 1 || !r.workMismatch {
		return goldenEntry{}, fmt.Errorf("%d of %d jobs failed", r.failed, r.attempted)
	}
	fp, err := s.replay()
	if err != nil {
		return goldenEntry{}, err
	}
	if fp.Flops != r.fp.Flops {
		return goldenEntry{}, fmt.Errorf("replay priced %d flops, the stream %d: the replayed grids differ from the experiments'", fp.Flops, r.fp.Flops)
	}
	fp.CellsExact, fp.CellsAnalytic = r.fp.CellsExact, r.fp.CellsAnalytic
	fp.ProfilesBuilt, fp.ProfilesReused = r.fp.ProfilesBuilt, r.fp.ProfilesReused
	fp.MCUtilMax = mcUtilMax()
	fmt.Fprintf(log, "serve-mixed: %d accesses, %d flops per stream\n", fp.Accesses, fp.Flops)
	return goldenEntry{Fingerprint: fp}, nil
}

// daemon is one in-process serve.Server on a loopback listener.
type daemon struct {
	base   string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

func startDaemon() (*daemon, error) {
	srv := serve.NewServer(serve.ServerConfig{Workers: 1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{
		base:   "http://" + l.Addr().String() + "/api/v1",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}, Timeout: 2 * time.Minute},
		cancel: cancel,
		done:   make(chan error, 1),
	}
	//sccvet:allow bare-goroutine the daemon under test; stop cancels it and waits for Run to return
	go func() { d.done <- srv.Run(ctx, l) }()
	return d, nil
}

// stop shuts the daemon down and waits until it has.
func (d *daemon) stop() error {
	d.cancel()
	err := <-d.done
	d.client.CloseIdleConnections()
	return err
}

// jobResult is one job as the client saw it.
type jobResult struct {
	hit     bool
	latency float64 // submit to fetched result, seconds
	http    float64 // the submit and fetch calls, seconds
	hash    string
	digest  string // of the fetched CSV
	err     error
}

// do submits one job, waits for it and fetches its CSV result.
func (d *daemon) do(cfg serve.JobConfig, sp *obs.Span) jobResult {
	body, err := json.Marshal(cfg)
	if err != nil {
		return jobResult{err: err}
	}
	t0 := time.Now()
	var sub struct {
		ID       string `json:"id"`
		Hash     string `json:"hash"`
		CacheHit bool   `json:"cache_hit"`
	}
	if err := d.call(http.MethodPost, "/jobs", body, http.StatusAccepted, &sub); err != nil {
		return jobResult{err: fmt.Errorf("submit: %w", err)}
	}
	t1 := time.Now()
	var st struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := d.call(http.MethodGet, "/jobs/"+sub.ID+"/wait?timeout=2m", nil, http.StatusOK, &st); err != nil {
		return jobResult{err: fmt.Errorf("wait: %w", err)}
	}
	if st.State != string(serve.StateDone) {
		return jobResult{err: fmt.Errorf("job %s %s: %s", sub.ID, st.State, st.Error)}
	}
	t2 := time.Now()
	var csv []byte
	if err := d.call(http.MethodGet, "/jobs/"+sub.ID+"/result?format=csv", nil, http.StatusOK, &csv); err != nil {
		return jobResult{err: fmt.Errorf("fetch: %w", err)}
	}
	t3 := time.Now()
	sp.Record("serve.submit", t1.Sub(t0))
	sp.Record("serve.wait", t2.Sub(t1))
	sp.Record("serve.fetch", t3.Sub(t2))
	return jobResult{
		hit:     sub.CacheHit,
		latency: t3.Sub(t0).Seconds(),
		http:    (t1.Sub(t0) + t3.Sub(t2)).Seconds(),
		hash:    sub.Hash,
		digest:  digest(string(csv)),
	}
}

// call performs one request and decodes the response: JSON into a struct,
// or the raw body into a *[]byte.
func (d *daemon) call(method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = b
		return nil
	}
	return json.Unmarshal(b, out)
}
