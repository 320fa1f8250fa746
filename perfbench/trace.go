package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Layers a span can be charged to. Where spans of several layers overlap,
// the instant goes to the innermost one: layerRank orders them.
const (
	layerBench     = "bench"
	layerCore      = "core"
	layerStream    = "stream"
	layerMapReduce = "mapreduce"
	layerShardRPC  = "shardrpc"
	layerSpill     = "spill"
)

var layerRank = map[string]int{
	layerBench:     0,
	layerCore:      1,
	layerStream:    1,
	layerMapReduce: 2,
	layerShardRPC:  2,
	layerSpill:     3,
}

// tableLayers is the column order of the sum-of-layers table.
var tableLayers = []string{layerCore, layerStream, layerMapReduce, layerShardRPC, layerSpill}

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Op is the request or pass the span
// belongs to; N is a count the boundary observed (bytes, pairs).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. The client goroutine opens nested spans
// with begin/end; wrappers running on other goroutines (executor workers,
// shard runners) add leaf spans under whatever span is open on the client
// path, or under the current operation.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span

	nextID atomic.Int64
	op     atomic.Int64 // current operation id
	opSpan atomic.Int64 // root span of the current operation
	cur    atomic.Int64 // innermost open span on the client path
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// openSpan is a span begun on the client path and not yet ended.
type openSpan struct {
	s    span
	prev int64
}

// beginOp starts operation op and its root span.
func (t *tracer) beginOp(op int64, name string) *openSpan {
	t.op.Store(op)
	o := t.begin(name, layerBench)
	t.opSpan.Store(o.s.ID)
	return o
}

// begin opens a span on the client path, nested in the innermost open one.
func (t *tracer) begin(name, layer string) *openSpan {
	id := t.nextID.Add(1)
	parent := t.cur.Swap(id)
	return &openSpan{
		s:    span{ID: id, Parent: parent, Op: t.op.Load(), Name: name, Layer: layer, Start: t.now()},
		prev: parent,
	}
}

// end closes a client-path span, recording count n.
func (t *tracer) end(o *openSpan, n int64) {
	o.s.End = t.now()
	o.s.N = n
	t.cur.Store(o.prev)
	t.add(o.s)
}

// leaf records a finished span from any goroutine under the innermost
// client-path span.
func (t *tracer) leaf(name, layer string, start, end int64, n int64) {
	t.add(span{ID: t.nextID.Add(1), Parent: t.cur.Load(), Op: t.op.Load(), Name: name, Layer: layer, Start: start, End: end, N: n})
}

// opLeaf records a finished span directly under the current operation's
// root: work that runs concurrently with the client path, such as a shard
// round.
func (t *tracer) opLeaf(name, layer string, start, end int64, n int64) {
	t.add(span{ID: t.nextID.Add(1), Parent: t.opSpan.Load(), Op: t.op.Load(), Name: name, Layer: layer, Start: start, End: end, N: n})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the spans recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// byName groups span durations and counts by name.
func byName(spans []span) map[string][]span {
	out := make(map[string][]span)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// spillSums totals one operation's spill-layer file operations.
type spillSums struct{ files, kib, write, fsync, rename, read float64 }

// spillByOp totals the spans the timing FS recorded, per operation.
func spillByOp(spans []span) map[int64]*spillSums {
	out := make(map[int64]*spillSums)
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "spill.") {
			continue
		}
		p := out[s.Op]
		if p == nil {
			p = &spillSums{}
			out[s.Op] = p
		}
		ms := float64(s.dur()) / 1e6
		switch s.Name {
		case "spill.create":
			p.files++
		case "spill.write":
			p.write += ms
			p.kib += float64(s.N) / 1024
		case "spill.fsync":
			p.fsync += ms
		case "spill.rename":
			p.rename += ms
		case "spill.read":
			p.read += ms
		}
	}
	return out
}

// setSpillMetrics sets the spill layer's metrics over the given operations:
// counts as means, timings as medians.
func setSpillMetrics(m map[string]float64, ops []spillSums) {
	if len(ops) == 0 {
		return
	}
	var files, kib float64
	var write, fsync, rename, read []float64
	for _, p := range ops {
		files += p.files
		kib += p.kib
		write = append(write, p.write)
		fsync = append(fsync, p.fsync)
		rename = append(rename, p.rename)
		read = append(read, p.read)
	}
	n := float64(len(ops))
	m["spill.files"] = files / n
	m["spill.kb_written"] = kib / n
	m["spill.write_ms"] = median(write)
	m["spill.fsync_ms"] = median(fsync)
	m["spill.rename_ms"] = median(rename)
	m["spill.read_ms"] = median(read)
}

// attribution splits one operation's wall time across layers: every instant
// of the root span goes to the highest-ranked layer with a span open at that
// instant, or stays unattributed when none is. The parts sum to the root's
// duration exactly, so concurrent spans (two executor workers writing runs,
// shard rounds overlapping ingest) are never double-counted.
func attribution(root span, spans []span) (self map[string]time.Duration, unattributed time.Duration) {
	type edge struct {
		at    int64
		layer string
		delta int
	}
	var edges []edge
	for _, s := range spans {
		if s.ID == root.ID || s.Layer == layerBench {
			continue
		}
		start, end := max(s.Start, root.Start), min(s.End, root.End)
		if end <= start {
			continue
		}
		edges = append(edges, edge{start, s.Layer, +1}, edge{end, s.Layer, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	self = make(map[string]time.Duration)
	open := make(map[string]int)
	prev := root.Start
	charge := func(until int64) {
		if until <= prev {
			return
		}
		best, bestRank := "", -1
		for l, n := range open {
			if n > 0 && layerRank[l] > bestRank {
				best, bestRank = l, layerRank[l]
			}
		}
		if best == "" {
			unattributed += time.Duration(until - prev)
		} else {
			self[best] += time.Duration(until - prev)
		}
		prev = until
	}
	for _, e := range edges {
		charge(e.at)
		open[e.layer] += e.delta
	}
	charge(root.End)
	return self, unattributed
}

// layerTable is the per-workload sum-of-layers table: mean end-to-end time
// per operation next to the mean self time of each layer and the remainder.
type layerTable struct {
	ops          int
	e2e          time.Duration
	self         map[string]time.Duration
	unattributed time.Duration
}

// sumOfLayers builds the table over the operations whose root spans are
// named rootName.
func sumOfLayers(spans []span, rootName string) layerTable {
	perOp := make(map[int64][]span)
	var roots []span
	for _, s := range spans {
		if s.Name == rootName && s.Layer == layerBench {
			roots = append(roots, s)
		}
		perOp[s.Op] = append(perOp[s.Op], s)
	}
	tab := layerTable{self: make(map[string]time.Duration)}
	for _, r := range roots {
		self, un := attribution(r, perOp[r.Op])
		tab.ops++
		tab.e2e += r.dur()
		tab.unattributed += un
		for l, d := range self {
			tab.self[l] += d
		}
	}
	if tab.ops > 0 {
		n := time.Duration(tab.ops)
		tab.e2e /= n
		tab.unattributed /= n
		for l := range tab.self {
			tab.self[l] /= n
		}
	}
	return tab
}

// write prints the table; overheadPct is the traced-vs-untraced difference
// of the same end-to-end time.
func (tab layerTable) write(w io.Writer, workload string, overheadPct float64) {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	fmt.Fprintf(w, "sum of layers, %s, mean per operation over %d traced operations (ms):\n", workload, tab.ops)
	fmt.Fprintf(w, "  %-14s %10.3f\n", "end-to-end", ms(tab.e2e))
	var sum time.Duration
	for _, l := range tableLayers {
		fmt.Fprintf(w, "  %-14s %10.3f\n", l+" self", ms(tab.self[l]))
		sum += tab.self[l]
	}
	fmt.Fprintf(w, "  %-14s %10.3f\n", "sum of layers", ms(sum))
	fmt.Fprintf(w, "  %-14s %10.3f\n", "unattributed", ms(tab.unattributed))
	fmt.Fprintf(w, "  %-14s %10.2f %%\n", "trace overhead", overheadPct)
}

// writeSpans dumps the spans as JSON. Spans named in summarize are not
// written one by one but folded into one record per operation carrying
// their count and total duration, which keeps the per-observation ingest
// spans of a stream pass from producing a file of hundreds of megabytes.
func writeSpans(path string, spans []span, summarize map[string]bool) error {
	type summary struct {
		Op      int64  `json:"op"`
		Name    string `json:"name"`
		Count   int64  `json:"count"`
		TotalNS int64  `json:"total_ns"`
	}
	type key struct {
		op   int64
		name string
	}
	var keep []span
	agg := make(map[key]*summary)
	var order []*summary
	for _, s := range spans {
		if !summarize[s.Name] {
			keep = append(keep, s)
			continue
		}
		k := key{s.Op, s.Name}
		g := agg[k]
		if g == nil {
			g = &summary{Op: s.Op, Name: s.Name}
			agg[k] = g
			order = append(order, g)
		}
		g.Count++
		g.TotalNS += s.End - s.Start
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans     []span     `json:"spans"`
		Summaries []*summary `json:"summaries"`
	}{keep, order}); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
