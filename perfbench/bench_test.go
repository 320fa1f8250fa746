package main

import (
	"context"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"evmatching/internal/core"
	"evmatching/internal/dataset"
	"evmatching/internal/mapreduce"
	"evmatching/internal/shardrpc"
	"evmatching/internal/spill"
	"evmatching/internal/stream"
)

// TestMain lets the stream-remote pass-through test spawn this test binary
// as its shard worker, as the benchmark binary spawns itself.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		os.Exit(shardrpc.WorkerMain(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func obsAt(ts ...int64) []stream.Observation {
	out := make([]stream.Observation, len(ts))
	for i, t := range ts {
		out[i] = stream.Observation{TS: t}
	}
	return out
}

func TestClosingIndexOneObservationClosesSeveralWindows(t *testing.T) {
	// Window 1000 ms, lateness 250 ms: window w closes once the watermark
	// (max ts - 250) reaches (w+1)*1000.
	obs := obsAt(100, 900, 1300, 1200, 5300, 5400)
	got := closingIndex(obs, 1000, 250)
	want := []int{2, 4, 4, 4, 4} // ts 1300 closes w0; ts 5300 closes w1..w4 at once
	if len(got) != len(want) {
		t.Fatalf("closingIndex = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("closingIndex = %v, want %v", got, want)
		}
	}
}

// smallWorld is a world small enough for unit tests.
func smallWorld(t *testing.T) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.NumPersons = 80
	cfg.Density = 8
	cfg.NumWindows = 3
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func smallStream(t *testing.T, ds *dataset.Dataset) (stream.Config, []stream.Observation) {
	t.Helper()
	_, obs, err := stream.EventsFromDataset(ds, windowMS, 3)
	if err != nil {
		t.Fatal(err)
	}
	return stream.Config{
		Targets:    ds.SampleEIDs(30, rand.New(rand.NewSource(3))),
		WindowMS:   windowMS,
		LatenessMS: latenessMS,
		Dim:        ds.Config.DescriptorDim(),
		Seed:       3,
	}, obs
}

// TestClosingIndexMatchesEngine replays a log through a real Engine: every
// resolution an Ingest emits must carry a window the log-only rule says
// that very observation closes, and every resolution Flush emits a window
// no observation closes.
func TestClosingIndexMatchesEngine(t *testing.T) {
	ds := smallWorld(t)
	cfg, obs := smallStream(t, ds)
	closeAt := closingIndex(obs, windowMS, latenessMS)
	e, err := stream.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for i, o := range obs {
		if _, err := e.Ingest(o); err != nil {
			t.Fatal(err)
		}
		res := e.Resolutions()
		for _, r := range res[seen:] {
			if r.Window >= len(closeAt) || closeAt[r.Window] != i {
				t.Fatalf("resolution of window %d emitted at observation %d; closingIndex says %v", r.Window, i, closeAt)
			}
		}
		seen = len(res)
	}
	if seen == 0 {
		t.Fatal("no resolution before Flush; the test world is too small")
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	res := e.Resolutions()
	if len(res) == seen {
		t.Fatal("no resolution at Flush; the test world does not exercise the Flush path")
	}
	for _, r := range res[seen:] {
		if r.Window < len(closeAt) {
			t.Fatalf("Flush emitted a resolution of window %d, which observation %d closes", r.Window, closeAt[r.Window])
		}
	}
}

func TestResolutionDueFlushEmitted(t *testing.T) {
	t0 := time.Unix(100, 0)
	s := schedule{start: t0, rate: 1000, n: 10}
	closeAt := []int{3, 7}
	for _, c := range []struct {
		window int
		want   time.Duration
	}{
		{0, 3 * time.Millisecond},
		{1, 7 * time.Millisecond},
		{2, 10 * time.Millisecond}, // closed by Flush, due after the last observation
		{-1, 10 * time.Millisecond},
	} {
		if got := s.resolutionDue(c.window, closeAt).Sub(t0); got != c.want {
			t.Errorf("resolutionDue(%d) = start+%v, want start+%v", c.window, got, c.want)
		}
	}
}

func TestPercentileSampleCountAndThinTail(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	d := newDist("x_ms", "ms", xs)
	line, v, err := d.line("x_ms_p95", 0.95)
	if err != nil {
		t.Fatalf("p95 of 500 samples has 25 beyond it: %v", err)
	}
	if !strings.Contains(line, "n=500") || v < 475 || v > 476 {
		t.Fatalf("line %q value %v", line, v)
	}
	if _, err := d.pct(0.99); err == nil {
		t.Fatal("p99 of 500 samples (5 beyond it) was not refused")
	}
	d = newDist("x_ms", "ms", append(xs, xs...))
	if _, err := d.pct(0.99); err != nil {
		t.Fatalf("p99 of 1000 samples has 10 beyond it: %v", err)
	}
	if _, err := newDist("empty", "ms", nil).pct(0.5); err == nil {
		t.Fatal("median of no samples was not refused")
	}
}

// fakeClock advances only when slept on or told to.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestPaceMeasuresLagFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	s := schedule{start: clk.now, rate: 1000, n: 5} // one send per ms
	lags, err := s.pace(clk, func(i int) error {
		if i == 1 {
			clk.now = clk.now.Add(10 * time.Millisecond) // a send that stalls
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Send 2 was due at 2 ms but starts at 11 ms. Timing from when the
	// previous send finished would report no lag at all.
	want := []time.Duration{0, 0, 9 * time.Millisecond, 8 * time.Millisecond, 7 * time.Millisecond}
	for i := range want {
		if lags[i] != want[i] {
			t.Fatalf("lags = %v, want %v", lags, want)
		}
	}

	closed := schedule{start: clk.now, n: 3}
	calls := 0
	lags, err = closed.pace(clk, func(int) error { calls++; return nil })
	if err != nil || lags != nil || calls != 3 {
		t.Fatalf("closed loop: lags %v err %v calls %d", lags, err, calls)
	}
}

func TestAttributionSumsToRoot(t *testing.T) {
	root := span{ID: 1, Name: "op", Layer: layerBench, Start: 0, End: 100}
	spans := []span{
		root,
		{ID: 2, Layer: layerCore, Start: 10, End: 90},
		{ID: 3, Layer: layerMapReduce, Start: 20, End: 50},
		{ID: 4, Layer: layerSpill, Start: 30, End: 40},
		{ID: 5, Layer: layerSpill, Start: 35, End: 45}, // a second worker, overlapping
	}
	self, un := attribution(root, spans)
	want := map[string]time.Duration{layerCore: 50, layerMapReduce: 15, layerSpill: 15}
	for l, d := range want {
		if self[l] != d {
			t.Errorf("%s self = %d, want %d", l, self[l], d)
		}
	}
	if un != 20 {
		t.Errorf("unattributed = %d, want 20", un)
	}
}

// TestMatchWrappersPassThrough runs a budgeted matcher with and without the
// traced executor and timing FS: the fingerprints must agree, and the
// wrappers must have seen the jobs and the spill files.
func TestMatchWrappersPassThrough(t *testing.T) {
	ds := smallWorld(t)
	targets := ds.SampleEIDs(24, rand.New(rand.NewSource(5)))
	dir := t.TempDir()
	opts := core.Options{Algorithm: core.AlgorithmSS, Mode: core.ModeParallel, Workers: workers, MemBudget: 64, SpillDir: dir}
	plain, err := core.New(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Match(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}

	tr := newTracer()
	stats := &spill.Stats{}
	opts.SpillStats = stats
	opts.Executor = traceExecutor{tr: tr, inner: mapreduce.ParallelExecutor{
		Workers: workers, MemBudget: opts.MemBudget, SpillDir: dir, Stats: stats,
		FS: timingFS{inner: spill.OS{}, tr: tr},
	}}
	traced, err := core.New(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := traced.Match(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("traced match fingerprint differs from the plain one")
	}
	if got.Spill.RunsWritten == 0 {
		t.Fatal("the budget forced no spill; the test does not cover the timing FS")
	}
	names := byName(tr.snapshot())
	for _, n := range []string{"ev.split.shuffle", "ev.vstage.extract", "spill.create", "spill.write", "spill.fsync", "spill.rename", "spill.read"} {
		if len(names[n]) == 0 {
			t.Errorf("no %s span recorded", n)
		}
	}
}

// inProcess runs shards on in-process windowers through the shard seam.
type inProcess struct{}

func (inProcess) RunShard(run stream.ShardRun) { stream.RunShardInProcess(run) }

// TestShardRunnerWrapperPassThrough replays one log through two-shard
// routers with and without the runner wrapper, over in-process windowers
// and over worker processes: resolutions and Finalize fingerprints must
// all agree with the unwrapped in-process run.
func TestShardRunnerWrapperPassThrough(t *testing.T) {
	ds := smallWorld(t)
	cfg, obs := smallStream(t, ds)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	sup := shardrpc.NewSupervisor(shardrpc.SupervisorConfig{Command: []string{exe}, Env: []string{workerEnv + "=1"}})
	defer sup.Close()

	replay := func(runner stream.ShardRunner) ([]stream.Resolution, string) {
		t.Helper()
		rt, err := stream.NewRouter(stream.RouterConfig{Config: cfg, Shards: shards, Runner: runner})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		for i, o := range obs {
			if _, err := rt.Ingest(o); err != nil {
				t.Fatal(err)
			}
			if i == len(obs)/2 {
				if err := rt.Checkpoint(io.Discard); err != nil {
					t.Fatal(err)
				}
			}
		}
		rep, err := rt.Finalize(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rt.Resolutions(), rep.Fingerprint()
	}

	wantRes, wantFP := replay(inProcess{})
	if len(wantRes) == 0 {
		t.Fatal("no resolutions; the test world is too small")
	}
	tr := newTracer()
	for _, c := range []struct {
		name   string
		runner stream.ShardRunner
	}{
		{"in-process wrapped", newTraceRunner(inProcess{}, tr, false)},
		{"remote", sup},
		{"remote wrapped", newTraceRunner(sup, tr, true)},
	} {
		res, fp := replay(c.runner)
		if fp != wantFP {
			t.Errorf("%s: Finalize fingerprint differs", c.name)
		}
		if len(res) != len(wantRes) {
			t.Errorf("%s: %d resolutions, want %d", c.name, len(res), len(wantRes))
			continue
		}
		for i := range res {
			if res[i] != wantRes[i] {
				t.Errorf("%s: resolution %d = %+v, want %+v", c.name, i, res[i], wantRes[i])
				break
			}
		}
	}
	if st := sup.Stats(); st.Fallbacks > 0 {
		t.Fatalf("remote runs fell back in-process %d times", st.Fallbacks)
	}
	names := byName(tr.snapshot())
	if len(names["shardrpc.round"]) == 0 || len(names["shardrpc.spawn"]) == 0 {
		t.Fatalf("wrapper recorded %d rounds and %d spawns", len(names["shardrpc.round"]), len(names["shardrpc.spawn"]))
	}
}

func TestCompareRefusesDifferentShapes(t *testing.T) {
	a := resultFile{
		Shape:    shape{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", ScratchFS: "ext4", Seed: 1},
		Workload: "match",
		Result:   result{Metrics: map[string]metric{"latency_ms_p50": {Value: 10, Unit: "ms"}}},
	}
	b := a
	b.Shape.Seed = 2
	var out, errb strings.Builder
	if code := compareResults(a, b, &out, &errb); code != 0 || !strings.Contains(out.String(), "latency_ms_p50") {
		t.Fatalf("same shape, other seed: exit %d, out %q, err %q", code, out.String(), errb.String())
	}
	b.Shape.NumCPU = 4
	if code := compareResults(a, b, &out, &errb); code != 2 {
		t.Fatalf("different num_cpu compared, exit %d", code)
	}
}

// TestResetPeakRSS touches a large buffer, drops it and resets the peak:
// the peak read afterwards must no longer include the buffer.
func TestResetPeakRSS(t *testing.T) {
	buf := make([]byte, 128<<20)
	for i := range buf {
		if i%4096 == 0 {
			buf[i] = 1
		}
	}
	before, err := peakRSSMB("self")
	if err != nil {
		t.Fatal(err)
	}
	if before < 128 {
		t.Fatalf("peak %.1f MB after touching a 128 MB buffer", before)
	}
	buf = nil
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	after, err := peakRSSMB("self")
	if err != nil {
		t.Fatal(err)
	}
	if after > before-64 {
		t.Fatalf("peak %.1f MB after the reset, %.1f MB before it", after, before)
	}
}

// TestRemotePeakRSSCountsServingWorkers serves a replay from worker
// processes that stay up, as the stream-remote passes are served: the
// figure must be at least the largest serving worker's own peak plus this
// process's.
func TestRemotePeakRSSCountsServingWorkers(t *testing.T) {
	ds := smallWorld(t)
	cfg, obs := smallStream(t, ds)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	sup := shardrpc.NewSupervisor(shardrpc.SupervisorConfig{Command: []string{exe}, Env: []string{workerEnv + "=1"}})
	defer sup.Close()
	rt, err := stream.NewRouter(stream.RouterConfig{Config: cfg, Shards: shards, Runner: sup})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, o := range obs {
		if _, err := rt.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
	pids := sup.PIDs()
	if len(pids) != shards {
		t.Fatalf("%d workers spawned, want %d", len(pids), shards)
	}
	var worker float64
	for _, pid := range pids {
		mb, err := peakRSSMB(strconv.Itoa(pid))
		if err != nil {
			t.Fatalf("worker %d: %v", pid, err)
		}
		worker = max(worker, mb)
	}
	self, err := peakRSSMB("self")
	if err != nil {
		t.Fatal(err)
	}
	r := &streamRun{o: newOutcome(), sup: sup}
	got, err := r.peakRSS()
	if err != nil {
		t.Fatal(err)
	}
	if worker <= 0 || got < self+worker {
		t.Fatalf("peak %.1f MB, want at least this process's %.1f MB plus the largest worker's %.1f MB", got, self, worker)
	}
}
