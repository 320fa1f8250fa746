package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"evmatching/internal/blocking"
	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/ids"
	"evmatching/internal/mapreduce"
	"evmatching/internal/spill"
)

// setupReps is how many times a run sets the system up; setup_s is the
// median.
const setupReps = 8

// minRequests keeps a slow run long enough for its p95 to have 10
// samples beyond it.
const minRequests = 200

// matchRun is the state of one match or match-spill run.
type matchRun struct {
	b     *bench
	o     *outcome
	ds    *dataset.Dataset
	pool  [][]ids.EID
	refs  []string // reference fingerprint per pool entry
	stats *spill.Stats
}

// options are the resident matcher's options: SS, parallel, two workers,
// and on match-spill a 1 KiB shuffle budget. exec, when non-nil, is the
// traced executor, which then carries the budget itself.
func (r *matchRun) options(exec mapreduce.Executor) core.Options {
	opts := core.Options{Algorithm: core.AlgorithmSS, Mode: core.ModeParallel, Workers: workers, Executor: exec, SpillStats: r.stats}
	if r.b.workload == "match-spill" {
		opts.MemBudget = spillBudget
		opts.SpillDir = r.b.scratch
	}
	return opts
}

// tracedExecutor is the executor core would build from options(nil), with
// the job and file-operation wrappers around it.
func (r *matchRun) tracedExecutor(tr *tracer) mapreduce.Executor {
	opts := r.options(nil)
	return traceExecutor{tr: tr, inner: mapreduce.ParallelExecutor{
		Workers:   workers,
		MemBudget: opts.MemBudget,
		SpillDir:  opts.SpillDir,
		Stats:     r.stats,
		FS:        timingFS{inner: spill.OS{}, tr: tr},
	}}
}

func runMatch(b *bench, o *outcome) error {
	ds, err := cityWorld()
	if err != nil {
		return err
	}
	r := &matchRun{b: b, o: o, ds: ds, pool: requestSamples(ds, b.seed), stats: &spill.Stats{}}
	if err := r.references(); err != nil {
		return err
	}
	if err := resetPeakRSS(); err != nil {
		return err
	}

	// The matcher that serves the run is the first setup. Further setups
	// are spread across the measured time, one before each slice, so the
	// setup_s median samples the machine over the whole run rather than
	// one burst at its start.
	start := time.Now()
	m, err := r.ready(nil)
	if err != nil {
		return err
	}
	setups := []float64{time.Since(start).Seconds()}
	if b.trace {
		return r.traced(m)
	}
	var lats []float64
	var elapsed time.Duration
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			start := time.Now()
			if _, err := r.ready(nil); err != nil {
				return err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		l, e := r.loop(m, b.seconds/setupReps, minRequests/setupReps, nil, nil)
		lats = append(lats, l...)
		elapsed += e
	}
	o.printf("workload %s: closed loop, 1 client, %d target EIDs per request, %d distinct requests\n", b.workload, requestEIDs, len(r.pool))
	o.value("setup_s", "setup_s", median(setups), "s", len(setups))
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	o.value("peak_rss_mb", "peak_rss_mb", rss, "MB", 1)
	d := newDist("match_ms", "ms", lats)
	if err := o.quantile("latency_ms_p50", "match_ms_p50", d, 0.5); err != nil {
		return err
	}
	if err := o.quantile("", "match_ms_p95", d, 0.95); err != nil {
		return err
	}
	o.value("throughput_per_s", "match_eids_per_s", float64(requestEIDs*len(lats))/elapsed.Seconds(), "1/s", len(lats))
	return nil
}

// references computes each pool request's fingerprint on an untimed,
// unbudgeted in-memory matcher.
func (r *matchRun) references() error {
	ref, err := core.New(r.ds, core.Options{Algorithm: core.AlgorithmSS, Mode: core.ModeParallel, Workers: workers})
	if err != nil {
		return err
	}
	r.refs = make([]string, len(r.pool))
	for i, req := range r.pool {
		rep, err := ref.Match(context.Background(), req)
		if err != nil {
			return fmt.Errorf("reference match: %w", err)
		}
		r.refs[i] = rep.Fingerprint()
	}
	return nil
}

// ready sets a matcher up until it can serve: construction, the blocking
// index build and one warm match, which is checked like any other.
func (r *matchRun) ready(exec mapreduce.Executor) (*core.Matcher, error) {
	m, err := core.New(r.ds, r.options(exec))
	if err != nil {
		return nil, err
	}
	rep, err := m.Match(context.Background(), r.pool[0])
	if err != nil {
		return nil, fmt.Errorf("warm match: %w", err)
	}
	if rep.Fingerprint() != r.refs[0] {
		r.o.note("warm match differs from its reference")
	}
	return m, nil
}

// loop sends requests one after another for d, and at least minOps, and
// returns the latencies of the correct ones in ms. With tr set, each
// request is a traced operation and onReport sees its report.
func (r *matchRun) loop(m *core.Matcher, d time.Duration, minOps int, tr *tracer, onReport func(op int64, rep *core.Report)) ([]float64, time.Duration) {
	var lats []float64
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < d; i++ {
		op := int64(r.o.attempted + 1)
		k := int(op-1) % len(r.pool)
		var root, call *openSpan
		if tr != nil {
			root = tr.beginOp(op, "match.request")
			call = tr.begin("core.Match", layerCore)
		}
		t0 := time.Now()
		rep, err := m.Match(context.Background(), r.pool[k])
		lat := time.Since(t0)
		if tr != nil {
			tr.end(call, 0)
			tr.end(root, 0)
		}
		r.o.attempted++
		if err != nil {
			r.o.fail("request %d: %v", op, err)
			continue
		}
		if rep.Fingerprint() != r.refs[k] {
			r.o.fail("request %d: fingerprint differs from the in-memory reference", op)
			continue
		}
		lats = append(lats, float64(lat)/1e6)
		if onReport != nil {
			onReport(op, rep)
		}
	}
	return lats, time.Since(start)
}

// traced measures half the run untraced, then half through the wrappers,
// and derives the per-layer metrics from the traced half.
func (r *matchRun) traced(m *core.Matcher) error {
	o, b := r.o, r.b
	plain, _ := r.loop(m, b.seconds/2, 0, nil, nil)

	tr := newTracer()
	tm, err := r.ready(r.tracedExecutor(tr))
	if err != nil {
		return err
	}
	tr.reset()

	// Per-request figures: the report's own, then the sums of the job and
	// file-operation spans.
	type opSums struct {
		e, v, split, extract, compare, jobs, pairs  float64
		extractions, comparisons, processed, perEID float64
		cand, pruned, runsMerged                    float64
		spill                                       spillSums
	}
	per := make(map[int64]*opSums)
	prevSpill := r.stats.Snapshot()
	traced, _ := r.loop(tm, b.seconds/2, 0, tr, func(op int64, rep *core.Report) {
		p := &opSums{
			e:           float64(rep.ETime) / 1e6,
			v:           float64(rep.VTime) / 1e6,
			extractions: float64(rep.VStats.Extractions),
			comparisons: float64(rep.VStats.Comparisons),
			processed:   float64(rep.VStats.ScenariosProcessed),
			cand:        float64(rep.BlockCandidates),
			pruned:      float64(rep.BlockPruned),
			runsMerged:  float64(rep.Spill.RunsMerged - prevSpill.RunsMerged),
		}
		for _, n := range rep.PerEID {
			p.perEID += float64(n)
		}
		prevSpill = rep.Spill
		per[op] = p
	})
	if len(traced) == 0 {
		return fmt.Errorf("no traced request succeeded")
	}
	spans := tr.snapshot()
	for _, s := range spans {
		p := per[s.Op]
		if p == nil {
			continue // a failed request
		}
		ms := float64(s.dur()) / 1e6
		switch {
		case strings.HasPrefix(s.Name, "ev.split."):
			p.split += ms
			p.jobs++
		case s.Name == "ev.vstage.extract":
			p.extract += ms
		case s.Name == "ev.vstage.compare":
			p.compare += ms
		}
		if s.Layer == layerMapReduce {
			p.pairs += float64(s.N)
		}
	}
	spills := spillByOp(spans)
	ops := make([]opSums, 0, len(per))
	spillOps := make([]spillSums, 0, len(per))
	for op, p := range per {
		if sp := spills[op]; sp != nil {
			p.spill = *sp
		}
		ops = append(ops, *p)
		spillOps = append(spillOps, p.spill)
	}
	med := func(f func(opSums) float64) float64 {
		xs := make([]float64, len(ops))
		for i, p := range ops {
			xs[i] = f(p)
		}
		return median(xs)
	}
	sum := func(f func(opSums) float64) float64 {
		t := 0.0
		for _, p := range ops {
			t += f(p)
		}
		return t
	}
	mean := func(f func(opSums) float64) float64 { return sum(f) / float64(len(ops)) }
	ratio := func(num, den func(opSums) float64) float64 {
		if d := sum(den); d > 0 {
			return sum(num) / d
		}
		return 0
	}

	var builds []float64
	for k := 0; k < 3; k++ {
		start := time.Now()
		blocking.Build(r.ds.Store, blocking.DefaultGeometry())
		builds = append(builds, float64(time.Since(start))/1e6)
	}

	o.metrics["core.e_ms"] = med(func(p opSums) float64 { return p.e })
	o.metrics["core.v_ms"] = med(func(p opSums) float64 { return p.v })
	o.metrics["core.e_self_ms"] = med(func(p opSums) float64 { return p.e - p.split })
	o.metrics["blocking.build_ms"] = median(builds)
	o.metrics["blocking.admit_ratio"] = ratio(func(p opSums) float64 { return p.cand }, func(p opSums) float64 { return p.cand + p.pruned })
	o.metrics["mapreduce.split_ms"] = med(func(p opSums) float64 { return p.split })
	o.metrics["mapreduce.split_jobs"] = mean(func(p opSums) float64 { return p.jobs })
	o.metrics["mapreduce.extract_ms"] = med(func(p opSums) float64 { return p.extract })
	o.metrics["mapreduce.compare_ms"] = med(func(p opSums) float64 { return p.compare })
	o.metrics["mapreduce.shuffle_pairs"] = mean(func(p opSums) float64 { return p.pairs })
	o.metrics["vfilter.extractions"] = mean(func(p opSums) float64 { return p.extractions })
	o.metrics["vfilter.comparisons"] = mean(func(p opSums) float64 { return p.comparisons })
	o.metrics["vfilter.scenario_reuse"] = ratio(func(p opSums) float64 { return p.perEID }, func(p opSums) float64 { return p.processed })
	setSpillMetrics(o.metrics, spillOps)
	o.metrics["spill.runs_merged"] = mean(func(p opSums) float64 { return p.runsMerged })

	tab := sumOfLayers(spans, "match.request")
	overhead := 100 * (median(traced)/median(plain) - 1)
	o.metrics["trace.overhead_pct"] = overhead
	o.metrics["trace.unattributed_ms"] = float64(tab.unattributed) / 1e6
	o.printf("workload %s traced: %d untraced then %d traced requests; per-request means, medians for *_ms\n", b.workload, len(plain), len(traced))
	tab.write(&o.report, b.workload, overhead)
	return writeSpans(filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", b.workload, b.seed)), spans, nil)
}
