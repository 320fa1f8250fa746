// Command perfbench is the repository benchmark. It runs one named workload
// over the seeded city world for a fixed time, checks every result against
// an untimed reference, and prints its metrics: a human-readable report,
// then one JSON line.
//
//	perfbench --workload match|match-spill|stream|stream-remote --seed N --seconds S --trace 0|1
//
// With --trace 0 the JSON line carries the end-to-end metrics, measured with
// no instrumentation installed. With --trace 1 it carries the per-layer
// metrics: the run measures untraced operations first, then the same
// operations through the tracing wrappers, and prints the sum-of-layers
// table. README.md lists the metrics and which workload moves each.
//
//	perfbench compare OLD.json NEW.json
//
// compares two result files written by earlier runs, refusing results from
// different machine shapes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"evmatching/internal/shardrpc"
)

// workerEnv marks a re-exec of this binary as a shard worker: the
// stream-remote workload spawns itself as its evshardd.
const workerEnv = "PERFBENCH_SHARD_WORKER"

// outDir holds everything a run leaves behind: result files, span dumps
// and, while the run lasts, its scratch directory.
const outDir = ".bench_build/perfbench"

type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, the ones a change is
// gated on; every workload reports each of them. Latency and throughput
// mean the workload's own operation: a match request, or an observation
// becoming a resolution. The tail percentiles (match_ms_p95,
// resolve_ms_p99) and the generator lag are printed and recorded in the
// result file but not gated: on a 2-vCPU virtual machine whose steal time
// swings between 5 and 30 %, their run-to-run spread exceeded a quarter of
// their median.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"latency_ms_p50", "ms"},
	{"throughput_per_s", "1/s"},
}

// perLayer are the traced run's metrics. A layer the workload bypasses
// reports zero.
var perLayer = []metricSpec{
	{"core.e_ms", "ms"},
	{"core.v_ms", "ms"},
	{"core.e_self_ms", "ms"},
	{"blocking.build_ms", "ms"},
	{"blocking.admit_ratio", "ratio"},
	{"mapreduce.split_ms", "ms"},
	{"mapreduce.split_jobs", "count"},
	{"mapreduce.extract_ms", "ms"},
	{"mapreduce.compare_ms", "ms"},
	{"mapreduce.shuffle_pairs", "count"},
	{"vfilter.extractions", "count"},
	{"vfilter.comparisons", "count"},
	{"vfilter.scenario_reuse", "ratio"},
	{"spill.files", "count"},
	{"spill.kb_written", "KiB"},
	{"spill.write_ms", "ms"},
	{"spill.fsync_ms", "ms"},
	{"spill.rename_ms", "ms"},
	{"spill.read_ms", "ms"},
	{"spill.runs_merged", "count"},
	{"stream.ingest_us_p50", "us"},
	{"stream.ingest_us_p99", "us"},
	{"stream.close_ms_p50", "ms"},
	{"stream.close_ms_max", "ms"},
	{"stream.flush_ms", "ms"},
	{"stream.checkpoint_ms", "ms"},
	{"stream.checkpoint_write_ms", "ms"},
	{"stream.checkpoint_mb", "MB"},
	{"stream.block_admit_ratio", "ratio"},
	{"stream.late_dropped", "count"},
	{"stream.notify_dropped", "count"},
	{"shardrpc.round_ms_p50", "ms"},
	{"shardrpc.round_ms_max", "ms"},
	{"shardrpc.msgs", "count"},
	{"shardrpc.emits", "count"},
	{"shardrpc.wire_kb", "KiB"},
	{"shardrpc.spawn_ms", "ms"},
	{"shardrpc.retries", "count"},
	{"shardrpc.redispatches", "count"},
	{"shardrpc.fallbacks", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_ms", "ms"},
}

var workloads = []string{"match", "match-spill", "stream", "stream-remote"}

// bench is one run's settings.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	scratch  string
}

// outcome accumulates a run's operations, checks and metrics.
type outcome struct {
	attempted int
	failed    int
	problems  []string // failed checks and the first failure reasons
	metrics   map[string]float64
	reported  map[string]metric // every printed figure, by its printed name
	report    strings.Builder
	pids      []int // worker processes that must be gone when the run ends
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]float64), reported: make(map[string]metric)}
}

const maxProblems = 10

func (o *outcome) note(format string, args ...any) {
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// fail counts a failed operation and notes why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.note(format, args...)
}

// printf appends to the human-readable report.
func (o *outcome) printf(format string, args ...any) { fmt.Fprintf(&o.report, format, args...) }

// quantile prints the q-quantile of d under label, the name the workload
// knows it by, and records it. A non-empty name also sets that metric.
func (o *outcome) quantile(name, label string, d dist, q float64) error {
	line, v, err := d.line(label, q)
	if err != nil {
		return err
	}
	o.printf("%s\n", line)
	o.set(name, label, v, d.unit)
	return nil
}

// value prints v under label with its sample count and records it. A
// non-empty name also sets that metric.
func (o *outcome) value(name, label string, v float64, unit string, n int) {
	o.printf("%-28s %12.4f %-6s (n=%d)\n", label, v, unit, n)
	o.set(name, label, v, unit)
}

func (o *outcome) set(name, label string, v float64, unit string) {
	o.reported[label] = metric{Value: v, Unit: unit}
	if name != "" {
		o.metrics[name] = v
	}
}

func main() {
	if os.Getenv(workerEnv) == "1" {
		os.Exit(shardrpc.WorkerMain(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 50, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) || *seed < 1 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seed >= 1, --seconds >= 1, --trace 0|1\n", strings.Join(workloads, ", "))
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(outDir, "scratch-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b := &bench{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, scratch: scratch}
	shape := machineShape(b)

	o := newOutcome()
	o.printf("perfbench %s seed=%d seconds=%d trace=%d\n", b.workload, b.seed, *seconds, *trace)
	o.printf("shape: num_cpu=%d gomaxprocs=%d go=%s scratch_fs=%s\n", shape.NumCPU, shape.GOMAXPROCS, shape.GoVersion, shape.ScratchFS)
	switch b.workload {
	case "match", "match-spill":
		err = runMatch(b, o)
	default:
		err = runStream(b, o)
	}
	if herr := hygiene(b, o); herr != nil && err == nil {
		err = herr
	}
	if err != nil {
		fmt.Fprint(stdout, o.report.String())
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}

	specs := endToEnd
	if b.trace {
		specs = perLayer
	}
	res := result{Correct: o.failed == 0 && len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metric)}
	for _, s := range specs {
		v, ok := o.metrics[s.name]
		if !ok && !b.trace {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", b.workload, s.name)
			return 1
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	if b.trace {
		o.printf("per-layer metrics:\n")
		for _, s := range perLayer {
			o.printf("  %-28s %14.4f %s\n", s.name, res.Metrics[s.name].Value, s.unit)
		}
	}
	o.printf("operations: attempted=%d failed=%d correct=%t\n", res.Attempted, res.Failed, res.Correct)
	for _, p := range o.problems {
		o.printf("problem: %s\n", p)
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", b.workload, b.seed, *trace))
	if err := writeResultFile(path, resultFile{Shape: shape, Workload: b.workload, Trace: b.trace, Result: res, Reported: o.reported}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	o.printf("result file: %s\n", path)
	fmt.Fprint(stdout, o.report.String())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// shape is the machine a result was measured on. Results of different
// shapes are not comparable: fsync cost depends on the filesystem, and
// every parallel stage on the CPU count.
type shape struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	ScratchFS  string `json:"scratch_fs"`
	Seed       int64  `json:"seed"`
}

func machineShape(b *bench) shape {
	return shape{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		ScratchFS:  fsType(b.scratch),
		Seed:       b.seed,
	}
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x2FC12FC1: "zfs",
		0x6969:     "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// resetPeakRSS returns the freed heap to the OS and resets this process's
// peak resident set to its current size (clear_refs 5), so that a later
// peakRSSMB covers only what follows it: the untimed reference work done
// before stays out of the figure.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err == nil {
		_, err = f.WriteString("5")
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is a process's peak resident set (VmHWM) in MiB; pid is a
// process id or "self".
func peakRSSMB(pid string) (float64, error) {
	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("process %s VmHWM: %w", pid, err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("process %s: no VmHWM in its status", pid)
}

// largestPeakRSSMB is the largest peak resident set among the live
// processes in pids, read while they still run. A pid that has already
// exited is skipped; none left alive is an error.
func largestPeakRSSMB(pids []int) (float64, error) {
	largest, alive := 0.0, 0
	for _, pid := range pids {
		mb, err := peakRSSMB(strconv.Itoa(pid))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return 0, err
		}
		largest, alive = max(largest, mb), alive+1
	}
	if alive == 0 {
		return 0, fmt.Errorf("none of the worker processes %v is alive to read its peak RSS", pids)
	}
	return largest, nil
}

// hygiene removes the run's scratch directory and confirms that nothing it
// started outlives it: the directory is gone and every worker pid is dead.
func hygiene(b *bench, o *outcome) error {
	if err := os.RemoveAll(b.scratch); err != nil {
		return fmt.Errorf("remove scratch dir: %w", err)
	}
	if _, err := os.Stat(b.scratch); !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("scratch dir %s survived the run", b.scratch)
	}
	for _, pid := range o.pids {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			return fmt.Errorf("worker process %d outlived the run", pid)
		}
	}
	if len(o.pids) > 0 {
		o.printf("hygiene: %d worker processes reaped, scratch removed\n", len(o.pids))
	} else {
		o.printf("hygiene: scratch removed\n")
	}
	return nil
}

// resultFile is the full record of one run: the JSON line, plus every
// figure the report printed under its printed name.
type resultFile struct {
	Shape    shape             `json:"shape"`
	Workload string            `json:"workload"`
	Trace    bool              `json:"trace"`
	Result   result            `json:"result"`
	Reported map[string]metric `json:"reported,omitempty"`
}

func writeResultFile(path string, rf resultFile) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return fmt.Errorf("encode result file: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result file: %w", err)
	}
	return nil
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// compareMain prints each metric of two result files side by side. It
// refuses (exit 2) results from different machine shapes, workloads or
// trace modes: their numbers are not comparable.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	a, err := readResultFile(args[0])
	if err == nil {
		var bf resultFile
		bf, err = readResultFile(args[1])
		if err == nil {
			return compareResults(a, bf, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
	return 2
}

func compareResults(a, b resultFile, stdout, stderr io.Writer) int {
	sa, sb := a.Shape, b.Shape
	sa.Seed, sb.Seed = 0, 0
	if sa != sb || a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Fprintf(stderr, "perfbench compare: refusing to compare %s %+v with %s %+v\n", a.Workload, a.Shape, b.Workload, b.Shape)
		return 2
	}
	all := func(rf resultFile) map[string]metric {
		m := make(map[string]metric)
		for n, v := range rf.Reported {
			m[n] = v
		}
		for n, v := range rf.Result.Metrics {
			m[n] = v
		}
		return m
	}
	ma, mb := all(a), all(b)
	names := make([]string, 0, len(ma))
	for n := range ma {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		va, vb := ma[n], mb[n]
		change := "n/a"
		if va.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(vb.Value-va.Value)/va.Value)
		}
		fmt.Fprintf(stdout, "%-28s %14.4f -> %14.4f %-6s %s\n", n, va.Value, vb.Value, va.Unit, change)
	}
	return 0
}
