package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/ids"
	"evmatching/internal/shardrpc"
	"evmatching/internal/spill"
	"evmatching/internal/stream"
)

const (
	// pacedShare of the measured time goes to paced passes, the rest to
	// full-speed ones; minPaced and minFull hold whatever --seconds says,
	// so the resolve p99 always has enough samples beyond it and the
	// throughput median more than one pass.
	pacedShare = 0.7
	minPaced   = 3
	minFull    = 3
	// engineSetupBatch engine setups are timed before each pass; a remote
	// setup spawns worker processes and is timed once before each pass.
	engineSetupBatch = 50
	// checkpointsPerPass durable checkpoints are taken at even spacing
	// through the log, the last after the final observation.
	checkpointsPerPass = 4
)

// streamRun is the state of one stream or stream-remote run.
type streamRun struct {
	b       *bench
	o       *outcome
	ds      *dataset.Dataset
	obs     []stream.Observation
	closeAt []int // per window, the observation whose arrival closes it

	// sets are the target sets; passes take turns through them. cfg and ref
	// are the current set's engine config and reference resolution set.
	sets   []targetSet
	passNo int
	cfg    stream.Config
	ref    map[ids.EID]ids.VID

	remote bool
	sup    *shardrpc.Supervisor
	exe    string

	ckptPath string
	ckpt     bytes.Buffer
	ckptAt   map[int]bool // observation indexes followed by a checkpoint

	// last is the most recent pass's processor, kept open for the final
	// check; lastClose releases it.
	last      stream.Processor
	lastClose func() error

	// Totals over every pass, for the traced run's per-layer counters.
	lateDrops, notifyDrops, redispatches int64
}

// closingIndex returns, for every window the log's watermark closes, the
// index of the observation whose arrival closes it: the first whose
// timestamp lifts the watermark (max timestamp seen minus the lateness)
// past the window's end. A window no observation closes is absent (the
// slice is shorter) and closes at Flush. This is the Engine's close rule,
// computed from the log alone.
func closingIndex(obs []stream.Observation, windowMS, latenessMS int64) []int {
	var closeAt []int
	maxTS := int64(-1)
	for i, o := range obs {
		if o.TS <= maxTS {
			continue
		}
		maxTS = o.TS
		for target := floorDiv(maxTS-latenessMS, windowMS); int64(len(closeAt)) < target; {
			closeAt = append(closeAt, i)
		}
	}
	return closeAt
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// schedule is an open-loop send plan: observation i is due at start +
// i/rate and Flush right after the last observation. Rate 0 is a closed
// loop, where nothing is ever due.
type schedule struct {
	start time.Time
	rate  int
	n     int
}

func (s schedule) due(i int) time.Time {
	if s.rate <= 0 {
		return s.start
	}
	return s.start.Add(time.Duration(int64(i) * int64(time.Second) / int64(s.rate)))
}

func (s schedule) flushDue() time.Time { return s.due(s.n) }

// resolutionDue is when the operation that produced a resolution of window
// w was due: the observation that closed w, or Flush for a window only
// Flush closes. A resolution's latency runs from here, so a stall in the
// generator counts against every resolution it delays.
func (s schedule) resolutionDue(w int, closeAt []int) time.Time {
	if w >= 0 && w < len(closeAt) {
		return s.due(closeAt[w])
	}
	return s.flushDue()
}

// clock is the pacer's time source; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// pace calls send for each of the n observations. On an open-loop schedule
// it waits until each is due and returns how late each send started,
// measured from its due time, not from when the previous send finished:
// a send that stalls makes every later one late.
func (s schedule) pace(clk clock, send func(i int) error) ([]time.Duration, error) {
	var lags []time.Duration
	if s.rate > 0 {
		lags = make([]time.Duration, 0, s.n)
	}
	for i := 0; i < s.n; i++ {
		if s.rate > 0 {
			due := s.due(i)
			if d := due.Sub(clk.Now()); d > 0 {
				clk.Sleep(d)
			}
			lags = append(lags, clk.Now().Sub(due))
		}
		if err := send(i); err != nil {
			return lags, err
		}
	}
	return lags, nil
}

func runStream(b *bench, o *outcome) error {
	ds, err := cityWorld()
	if err != nil {
		return err
	}
	cfgs, obs, err := streamInputs(ds, b.seed)
	if err != nil {
		return err
	}
	r := &streamRun{
		b: b, o: o, ds: ds, obs: obs,
		closeAt:  closingIndex(obs, windowMS, latenessMS),
		remote:   b.workload == "stream-remote",
		ckptPath: filepath.Join(b.scratch, "stream.ckpt"),
		ckptAt:   make(map[int]bool),
	}
	for q := 1; q <= checkpointsPerPass; q++ {
		r.ckptAt[q*len(obs)/checkpointsPerPass-1] = true
	}
	for _, cfg := range cfgs {
		set, err := reference(cfg, obs)
		if err != nil {
			return err
		}
		r.sets = append(r.sets, set)
	}
	r.cfg, r.ref = r.sets[0].cfg, r.sets[0].ref
	if err := resetPeakRSS(); err != nil {
		return err
	}
	if r.remote {
		if r.exe, err = os.Executable(); err != nil {
			return err
		}
		defer func() {
			if r.sup != nil {
				r.sup.Close()
				o.pids = append(o.pids, r.sup.PIDs()...)
			}
		}()
	}
	defer r.closeLast() // closes the last router before its supervisor

	first, err := r.setupOnce(nil, true)
	if err != nil {
		return err
	}
	if b.trace {
		err = r.traced()
	} else {
		err = r.measure(first)
	}
	if err != nil {
		return err
	}
	return r.finalCheck()
}

// targetSet is one target set's engine config, its reference resolution
// set and the reference engine's blocking admit ratio, which a Router does
// not expose.
type targetSet struct {
	cfg   stream.Config
	ref   map[ids.EID]ids.VID
	admit float64
}

// reference replays the log once, untimed, through a plain Engine and
// records the resolution set every pass over cfg's targets must reproduce.
func reference(cfg stream.Config, obs []stream.Observation) (targetSet, error) {
	e, err := stream.NewEngine(cfg)
	if err != nil {
		return targetSet{}, err
	}
	for _, ob := range obs {
		if _, err := e.Ingest(ob); err != nil {
			return targetSet{}, fmt.Errorf("reference replay: %w", err)
		}
	}
	if err := e.Flush(); err != nil {
		return targetSet{}, fmt.Errorf("reference replay: %w", err)
	}
	set := targetSet{cfg: cfg, ref: make(map[ids.EID]ids.VID), admit: admitRatio(e)}
	for _, res := range e.Resolutions() {
		set.ref[res.EID] = res.VID
	}
	return set, nil
}

func admitRatio(e *stream.Engine) float64 {
	cand, pruned := e.BlockStats()
	if cand+pruned == 0 {
		return 0
	}
	return float64(cand) / float64(cand+pruned)
}

// newProc builds the system under test: an Engine, or a two-shard Router
// whose shards run in worker processes through runner.
func (r *streamRun) newProc(runner stream.ShardRunner) (stream.Processor, func() error, error) {
	if !r.remote {
		e, err := stream.NewEngine(r.cfg)
		return e, func() error { return nil }, err
	}
	rt, err := stream.NewRouter(stream.RouterConfig{Config: r.cfg, Shards: shards, Runner: runner})
	if err != nil {
		return nil, nil, err
	}
	return rt, rt.Close, nil
}

func (r *streamRun) newSupervisor() *shardrpc.Supervisor {
	return shardrpc.NewSupervisor(shardrpc.SupervisorConfig{
		Command: []string{r.exe},
		Env:     []string{workerEnv + "=1"},
	})
}

// setupOnce times the system getting ready to serve: engine construction
// and subscription, or for stream-remote a fresh supervisor, the router
// and the first spawn of its worker processes, confirmed by an empty
// checkpoint barrier every shard must answer. With keep, the supervisor
// stays up to serve the run. With tr set, the remote setup goes through
// the runner wrapper, which times the spawns.
func (r *streamRun) setupOnce(tr *tracer, keep bool) (float64, error) {
	start := time.Now()
	var runner stream.ShardRunner
	var sup *shardrpc.Supervisor
	if r.remote {
		sup = r.newSupervisor()
		runner = sup
		if tr != nil {
			runner = newTraceRunner(sup, tr, true)
		}
	}
	p, closeProc, err := r.newProc(runner)
	if err != nil {
		return 0, err
	}
	_, _, cancel := p.Subscribe()
	if r.remote {
		err = p.Checkpoint(io.Discard)
	}
	took := time.Since(start).Seconds()
	cancel()
	if cerr := closeProc(); err == nil {
		err = cerr
	}
	if sup != nil {
		if keep && err == nil {
			r.sup = sup
		} else {
			sup.Close()
			r.o.pids = append(r.o.pids, sup.PIDs()...)
		}
	}
	if err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	return took, nil
}

// sampleSetup adds setup samples: one remote setup, or engineSetupBatch
// engine setups, which take only about a tenth of a millisecond each.
func (r *streamRun) sampleSetup(setups *[]float64) error {
	n := engineSetupBatch
	if r.remote {
		n = 1
	}
	for i := 0; i < n; i++ {
		took, err := r.setupOnce(nil, false)
		if err != nil {
			return err
		}
		*setups = append(*setups, took)
	}
	return nil
}

// received is one resolution as the subscriber got it.
type received struct {
	res stream.Resolution
	at  time.Time
}

// passResult is what one replay of the log measured.
type passResult struct {
	sched     schedule
	wall      time.Duration
	recv      []received
	lags      []time.Duration
	emitted   int
	lateDrops int64
}

// pass replays the whole log once through a fresh processor: paced at
// pacedRate on an open-loop schedule, or at full speed. A durable
// checkpoint is taken at every quarter of the log, then Flush. The pass is
// checked against the reference and counted as one operation; a failed
// pass, an erroring one included, returns a nil result. The processor
// stays open in r.last.
func (r *streamRun) pass(op int64, paced bool, runner stream.ShardRunner, tr *tracer) (*passResult, error) {
	if err := r.closeLast(); err != nil {
		return nil, err
	}
	set := r.sets[r.passNo%len(r.sets)]
	r.passNo++
	r.cfg, r.ref = set.cfg, set.ref
	// Every pass starts from a collected heap, so where the collector's
	// cycles fall relative to the resolution bursts does not depend on
	// what the previous pass left behind.
	runtime.GC()
	p, closeProc, err := r.newProc(runner)
	if err != nil {
		return nil, err
	}
	r.last, r.lastClose = p, closeProc
	_, ch, cancel := p.Subscribe()
	pr := &passResult{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for res := range ch {
			pr.recv = append(pr.recv, received{res, time.Now()})
		}
	}()
	var fallbacks int64
	if r.sup != nil {
		fallbacks = r.sup.Stats().Fallbacks
	}

	rate := 0
	if paced {
		rate = pacedRate
	}
	n := len(r.obs)
	closes := make([]bool, n)
	for _, i := range r.closeAt {
		closes[i] = true
	}
	var root *openSpan
	if tr != nil {
		root = tr.beginOp(op, "stream.pass")
	}
	pr.sched = schedule{start: time.Now(), rate: rate, n: n}
	lags, err := pr.sched.pace(wallClock{}, func(i int) error {
		var sp *openSpan
		if tr != nil {
			name := "stream.ingest"
			if closes[i] {
				name = "stream.close"
			}
			sp = tr.begin(name, layerStream)
		}
		ok, err := p.Ingest(r.obs[i])
		if tr != nil {
			tr.end(sp, 0)
		}
		if err != nil {
			return fmt.Errorf("ingest %d: %w", i, err)
		}
		if !ok {
			pr.lateDrops++
		}
		if r.ckptAt[i] {
			if err := r.checkpoint(p, tr); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		var sp *openSpan
		if tr != nil {
			sp = tr.begin("stream.flush", layerStream)
		}
		err = p.Flush()
		if tr != nil {
			tr.end(sp, 0)
		}
	}
	pr.wall = time.Since(pr.sched.start)
	if tr != nil {
		tr.end(root, 0)
	}
	pr.lags = lags
	pr.emitted = len(p.Resolutions())
	cancel()
	<-done
	r.lateDrops += pr.lateDrops
	r.notifyDrops += int64(pr.emitted - len(pr.recv))
	if rt, ok := p.(*stream.Router); ok {
		r.redispatches += rt.Stats().Redispatches
	}
	r.o.attempted++
	switch {
	case err != nil:
		r.o.fail("pass %d: %v", op, err)
	case pr.lateDrops > 0:
		r.o.fail("pass %d: %d observations late-dropped", op, pr.lateDrops)
	case len(pr.recv) != pr.emitted:
		r.o.fail("pass %d: %d resolutions emitted, %d reached the subscriber", op, pr.emitted, len(pr.recv))
	case !sameResolutions(pr.recv, r.ref):
		r.o.fail("pass %d: resolution set differs from the reference replay", op)
	case r.sup != nil && r.sup.Stats().Fallbacks != fallbacks:
		r.o.fail("pass %d: a shard fell back in-process", op)
	default:
		return pr, nil
	}
	return nil, nil
}

// closeLast closes the most recent pass's processor.
func (r *streamRun) closeLast() error {
	var err error
	if r.lastClose != nil {
		err = r.lastClose()
	}
	r.last, r.lastClose = nil, nil
	return err
}

// sameResolutions reports whether the received (EID, VID) set equals ref.
func sameResolutions(recv []received, ref map[ids.EID]ids.VID) bool {
	if len(recv) != len(ref) {
		return false
	}
	for _, rc := range recv {
		if vid, ok := ref[rc.res.EID]; !ok || vid != rc.res.VID {
			return false
		}
	}
	return true
}

// checkpoint encodes the processor's state and writes it durably with
// spill.WriteFileAtomic, through the timing FS when traced. Encoding into
// memory first lets the traced run time encode and write apart.
func (r *streamRun) checkpoint(p stream.Processor, tr *tracer) error {
	r.ckpt.Reset()
	var sp *openSpan
	if tr != nil {
		sp = tr.begin("stream.checkpoint", layerStream)
	}
	err := p.Checkpoint(&r.ckpt)
	if tr != nil {
		tr.end(sp, int64(r.ckpt.Len()))
	}
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	var fsys spill.FS = spill.OS{}
	if tr != nil {
		sp = tr.begin("stream.checkpoint_write", layerSpill)
		fsys = timingFS{inner: fsys, tr: tr}
	}
	err = spill.WriteFileAtomic(fsys, r.ckptPath, func(w io.Writer) error {
		_, err := w.Write(r.ckpt.Bytes())
		return err
	})
	if tr != nil {
		tr.end(sp, int64(r.ckpt.Len()))
	}
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// passes runs paced or full-speed passes until d has elapsed and at least
// minPasses ran, returning the correct ones. before, when set, runs ahead
// of each pass.
func (r *streamRun) passes(paced bool, d time.Duration, minPasses int, runner stream.ShardRunner, tr *tracer, before func() error) ([]*passResult, error) {
	var out []*passResult
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < d; i++ {
		if before != nil {
			if err := before(); err != nil {
				return nil, err
			}
		}
		pr, err := r.pass(int64(r.o.attempted+1), paced, runner, tr)
		if err != nil {
			return nil, err
		}
		if pr != nil {
			out = append(out, pr)
		}
	}
	return out, nil
}

func (r *streamRun) runner() stream.ShardRunner {
	if r.sup == nil {
		return nil
	}
	return r.sup
}

// measure is the untraced run: paced passes for the latency metrics, then
// full-speed passes for throughput. Setup samples are taken before each
// pass, so the setup_s median samples the machine across the whole run.
func (r *streamRun) measure(first float64) error {
	o, b := r.o, r.b
	setups := []float64{first}
	sample := func() error { return r.sampleSetup(&setups) }
	pacedFor := time.Duration(pacedShare * float64(b.seconds))
	start := time.Now()
	paced, err := r.passes(true, pacedFor, minPaced, r.runner(), nil, sample)
	if err != nil {
		return err
	}
	full, err := r.passes(false, b.seconds-time.Since(start), minFull, r.runner(), nil, sample)
	if err != nil {
		return err
	}

	// Resolutions arrive in bursts, one per window close, most of them at
	// the first close, so the resolutions of a pass are not independent
	// samples: the gated p50 is the median of the per-pass p50s, counted in
	// passes, and the pooled tail is printed with its burst count.
	var resolve, passP50, lags, rates []float64
	bursts := 0
	for _, pr := range paced {
		var one []float64
		windows := make(map[int]bool)
		for _, rc := range pr.recv {
			one = append(one, float64(rc.at.Sub(pr.sched.resolutionDue(rc.res.Window, r.closeAt)))/1e6)
			windows[rc.res.Window] = true
		}
		resolve = append(resolve, one...)
		passP50 = append(passP50, median(one))
		bursts += len(windows)
		o.printf("paced pass: resolve_ms_p50 %.3f ms (n=%d in %d bursts), wall %.3f s\n", median(one), len(one), len(windows), pr.wall.Seconds())
		for _, l := range pr.lags {
			lags = append(lags, float64(l)/1e6)
		}
	}
	for _, pr := range full {
		rates = append(rates, float64(len(r.obs))/pr.wall.Seconds())
		o.printf("full-speed pass: %.0f obs/s, wall %.3f s\n", rates[len(rates)-1], pr.wall.Seconds())
	}
	kind := "Engine"
	if r.remote {
		kind = fmt.Sprintf("Router, %d shards in worker processes", shards)
	}
	o.printf("workload %s: %s, %d target sets of %d, %d observations; %d paced passes at %d obs/s, %d full-speed passes\n",
		b.workload, kind, len(r.sets), streamTargets, len(r.obs), len(paced), pacedRate, len(full))
	o.value("setup_s", "setup_s", median(setups), "s", len(setups))
	rss, err := r.peakRSS()
	if err != nil {
		return err
	}
	o.value("peak_rss_mb", "peak_rss_mb", rss, "MB", 1)
	if len(passP50) == 0 {
		return fmt.Errorf("no paced pass succeeded")
	}
	o.printf("%-28s %12.4f %-6s (median of per-pass p50s, n=%d passes)\n", "resolve_ms_p50", median(passP50), "ms", len(passP50))
	o.set("latency_ms_p50", "resolve_ms_p50", median(passP50), "ms")
	p99, err := newDist("resolve_ms", "ms", resolve).pct(0.99)
	if err != nil {
		return err
	}
	o.printf("%-28s %12.4f %-6s (p99, n=%d resolutions in %d bursts)\n", "resolve_ms_p99", p99, "ms", len(resolve), bursts)
	o.set("", "resolve_ms_p99", p99, "ms")
	if err := o.quantile("", "ingest_lag_ms_p99", newDist("ingest_lag_ms", "ms", lags), 0.99); err != nil {
		return err
	}
	if len(rates) == 0 {
		return fmt.Errorf("no full-speed pass succeeded")
	}
	o.value("throughput_per_s", "peak_obs_per_s", median(rates), "1/s", len(rates))
	return nil
}

// peakRSS is the peak resident set of this process since the reference
// replays, plus on stream-remote the largest peak among the worker
// processes that served the passes, read while they still run.
func (r *streamRun) peakRSS() (float64, error) {
	mb, err := peakRSSMB("self")
	if err != nil || r.sup == nil {
		return mb, err
	}
	worker, err := largestPeakRSSMB(r.sup.PIDs())
	if err != nil {
		return 0, err
	}
	r.o.printf("peak RSS: %.1f MB this process, %.1f MB the largest serving worker\n", mb, worker)
	return mb + worker, nil
}

// finalCheck runs once per run, untimed: the last pass's Finalize
// fingerprint must equal a batch matcher's over the same world with the
// in-order scan.
func (r *streamRun) finalCheck() error {
	if r.last == nil {
		return fmt.Errorf("no pass ran")
	}
	got, err := r.last.Finalize(context.Background())
	if err != nil {
		return fmt.Errorf("final pass: %w", err)
	}
	m, err := core.New(r.ds, core.Options{Algorithm: core.AlgorithmSS, Mode: core.ModeSerial, Seed: r.cfg.Seed, ScanOrder: core.ScanInOrder})
	if err != nil {
		return err
	}
	want, err := m.Match(context.Background(), r.cfg.Targets)
	if err != nil {
		return fmt.Errorf("batch reference: %w", err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		r.o.note("Finalize fingerprint differs from the batch in-order match")
	} else {
		r.o.printf("final check: Finalize fingerprint equals the batch in-order match (%d targets)\n", len(r.cfg.Targets))
	}
	return nil
}

// traced measures full-speed passes untraced, then through the wrappers,
// and derives the per-layer metrics from the traced passes.
func (r *streamRun) traced() error {
	o, b := r.o, r.b
	tr := newTracer()
	if r.remote {
		for i := 0; i < 3; i++ {
			if _, err := r.setupOnce(tr, false); err != nil {
				return err
			}
		}
	}
	var spawns []float64
	for _, s := range byName(tr.snapshot())["shardrpc.spawn"] {
		spawns = append(spawns, float64(s.dur())/1e6)
	}
	tr.reset()

	plain, err := r.passes(false, b.seconds/2, minFull, r.runner(), nil, nil)
	if err != nil {
		return err
	}
	runner := r.runner()
	var trr *traceRunner
	var before shardrpc.SupervisorStats
	if r.sup != nil {
		trr = newTraceRunner(r.sup, tr, false)
		runner = trr
		before = r.sup.Stats()
	}
	late, notify, redispatch := r.lateDrops, r.notifyDrops, r.redispatches
	traced, err := r.passes(false, b.seconds/2, minFull, runner, tr, nil)
	if err != nil {
		return err
	}
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("no correct pass to measure")
	}
	n := float64(len(traced))
	spans := tr.snapshot()
	groups := byName(spans)
	durs := func(name string, unit time.Duration) []float64 {
		var xs []float64
		for _, s := range groups[name] {
			xs = append(xs, float64(s.dur())/float64(unit))
		}
		return xs
	}

	ingest := newDist("stream.ingest_us", "us", durs("stream.ingest", time.Microsecond))
	closes := newDist("stream.close_ms", "ms", durs("stream.close", time.Millisecond))
	for _, q := range []struct {
		name string
		d    dist
		q    float64
	}{
		{"stream.ingest_us_p50", ingest, 0.5},
		{"stream.ingest_us_p99", ingest, 0.99},
		{"stream.close_ms_p50", closes, 0.5},
	} {
		v, err := q.d.pct(q.q)
		if err != nil {
			return err
		}
		o.metrics[q.name] = v
	}
	o.metrics["stream.close_ms_max"] = closes.max()
	o.metrics["stream.flush_ms"] = median(durs("stream.flush", time.Millisecond))
	o.metrics["stream.checkpoint_ms"] = median(durs("stream.checkpoint", time.Millisecond))
	o.metrics["stream.checkpoint_write_ms"] = median(durs("stream.checkpoint_write", time.Millisecond))
	var ckptMax int64
	for _, s := range groups["stream.checkpoint"] {
		ckptMax = max(ckptMax, s.N)
	}
	o.metrics["stream.checkpoint_mb"] = float64(ckptMax) / (1 << 20)
	var admit []float64
	for _, set := range r.sets {
		admit = append(admit, set.admit)
	}
	o.metrics["stream.block_admit_ratio"] = median(admit)
	var spillOps []spillSums
	for _, sp := range spillByOp(spans) {
		spillOps = append(spillOps, *sp)
	}
	setSpillMetrics(o.metrics, spillOps)
	o.metrics["stream.late_dropped"] = float64(r.lateDrops - late)
	o.metrics["stream.notify_dropped"] = float64(r.notifyDrops - notify)

	if trr != nil {
		rounds := newDist("shardrpc.round_ms", "ms", durs("shardrpc.round", time.Millisecond))
		o.metrics["shardrpc.round_ms_p50"] = median(rounds.xs)
		o.metrics["shardrpc.round_ms_max"] = rounds.max()
		o.metrics["shardrpc.msgs"] = float64(trr.msgs.Load()) / n
		o.metrics["shardrpc.emits"] = float64(trr.emits.Load()) / n
		o.metrics["shardrpc.wire_kb"] = float64(trr.wireBytes.Load()) / 1024 / n
		o.metrics["shardrpc.spawn_ms"] = median(spawns)
		after := r.sup.Stats()
		o.metrics["shardrpc.retries"] = float64(after.Retries - before.Retries)
		o.metrics["shardrpc.redispatches"] = float64(r.redispatches - redispatch)
		o.metrics["shardrpc.fallbacks"] = float64(after.Fallbacks - before.Fallbacks)
		if k := trr.encodeErrs.Load(); k > 0 {
			o.note("%d shard emissions failed to gob-encode for the wire count", k)
		}
	}

	wall := func(prs []*passResult) float64 {
		var xs []float64
		for _, pr := range prs {
			xs = append(xs, pr.wall.Seconds())
		}
		return median(xs)
	}
	tab := sumOfLayers(spans, "stream.pass")
	overhead := 100 * (wall(traced)/wall(plain) - 1)
	o.metrics["trace.overhead_pct"] = overhead
	o.metrics["trace.unattributed_ms"] = float64(tab.unattributed) / 1e6
	o.printf("workload %s traced: %d untraced then %d traced full-speed passes; ingest and close percentiles over every call\n",
		b.workload, len(plain), len(traced))
	tab.write(&o.report, b.workload, overhead)
	return writeSpans(filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", b.workload, b.seed)), spans, map[string]bool{"stream.ingest": true})
}
