package main

import (
	"context"
	"encoding/gob"
	"sync"
	"sync/atomic"

	"evmatching/internal/mapreduce"
	"evmatching/internal/spill"
	"evmatching/internal/stream"
)

// The wrappers below are the traced run's only instruments. Each sits on a
// seam the program already exposes and passes every call through unchanged;
// the pass-through tests pin that wrapped and unwrapped runs produce the
// same fingerprints and resolutions.

// traceExecutor times every MapReduce job as a mapreduce span named after
// the job, counting the pairs its map phase emitted.
type traceExecutor struct {
	inner mapreduce.Executor
	tr    *tracer
}

func (x traceExecutor) Run(ctx context.Context, job *mapreduce.Job) (*mapreduce.Result, error) {
	o := x.tr.begin(job.Name, layerMapReduce)
	res, err := x.inner.Run(ctx, job)
	var pairs int64
	if res != nil && res.Counters != nil {
		pairs = res.Counters.Get(mapreduce.CounterMapOut)
	}
	x.tr.end(o, pairs)
	return res, err
}

// timingFS times the spill tier's file operations: writes, fsyncs (of
// files and directories), renames and reads. Creating a file records a
// zero-length spill.create span, so span counts give the files written.
type timingFS struct {
	inner spill.FS
	tr    *tracer
}

func (fs timingFS) wrap(f spill.File, err error) (spill.File, error) {
	if err != nil {
		return nil, err
	}
	return timedFile{File: f, tr: fs.tr}, nil
}

func (fs timingFS) Create(name string) (spill.File, error) {
	at := fs.tr.now()
	fs.tr.leaf("spill.create", layerSpill, at, at, 0)
	return fs.wrap(fs.inner.Create(name))
}

func (fs timingFS) CreateTemp(dir, pattern string) (spill.File, error) {
	at := fs.tr.now()
	fs.tr.leaf("spill.create", layerSpill, at, at, 0)
	return fs.wrap(fs.inner.CreateTemp(dir, pattern))
}

func (fs timingFS) Open(name string) (spill.File, error) { return fs.wrap(fs.inner.Open(name)) }

func (fs timingFS) Rename(oldpath, newpath string) error {
	start := fs.tr.now()
	err := fs.inner.Rename(oldpath, newpath)
	fs.tr.leaf("spill.rename", layerSpill, start, fs.tr.now(), 0)
	return err
}

func (fs timingFS) Remove(name string) error { return fs.inner.Remove(name) }

func (fs timingFS) MkdirTemp(dir, pattern string) (string, error) {
	return fs.inner.MkdirTemp(dir, pattern)
}

func (fs timingFS) RemoveAll(path string) error { return fs.inner.RemoveAll(path) }

type timedFile struct {
	spill.File
	tr *tracer
}

func (f timedFile) op(name string, call func() (int, error)) (n int, err error) {
	start := f.tr.now()
	n, err = call()
	f.tr.leaf(name, layerSpill, start, f.tr.now(), int64(n))
	return n, err
}

func (f timedFile) Write(p []byte) (int, error) {
	return f.op("spill.write", func() (int, error) { return f.File.Write(p) })
}

func (f timedFile) Read(p []byte) (int, error) {
	return f.op("spill.read", func() (int, error) { return f.File.Read(p) })
}

func (f timedFile) ReadAt(p []byte, off int64) (int, error) {
	return f.op("spill.read", func() (int, error) { return f.File.ReadAt(p, off) })
}

func (f timedFile) Sync() error {
	_, err := f.op("spill.fsync", func() (int, error) { return 0, f.File.Sync() })
	return err
}

// traceRunner wraps a stream.ShardRunner. It forwards each incarnation's
// message stream through a queue of the same capacity, noting when each
// close message enters the shard, and times every emission: a
// shardrpc.round span runs from a round's close message to that round's
// Emit. Emitted ShardOuts are gob-encoded on one stream per shard, as
// net/rpc carries them, to count wire bytes. With measureSpawn set, the
// first incarnation of each shard also records a shardrpc.spawn span from
// RunShard to its first emission: worker spawn, dial and configure.
type traceRunner struct {
	inner        stream.ShardRunner
	tr           *tracer
	measureSpawn bool

	msgs, emits, wireBytes, encodeErrs atomic.Int64

	mu      sync.Mutex
	closeAt map[shardRound]int64 // close message forwarded
	enc     map[int]*gob.Encoder
	wire    map[int]*countWriter
	started map[int]bool
}

type shardRound struct{ shard, round int }

func newTraceRunner(inner stream.ShardRunner, tr *tracer, measureSpawn bool) *traceRunner {
	return &traceRunner{
		inner:        inner,
		tr:           tr,
		measureSpawn: measureSpawn,
		closeAt:      make(map[shardRound]int64),
		enc:          make(map[int]*gob.Encoder),
		wire:         make(map[int]*countWriter),
		started:      make(map[int]bool),
	}
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func (x *traceRunner) RunShard(run stream.ShardRun) {
	start := x.tr.now()
	x.mu.Lock()
	spawn := x.measureSpawn && !x.started[run.Shard]
	x.started[run.Shard] = true
	x.mu.Unlock()

	in := make(chan stream.ShardMsg, cap(run.In))
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			var m stream.ShardMsg
			select {
			case m = <-run.In:
			case <-run.Stop:
				return
			case <-done:
				return
			}
			x.msgs.Add(1)
			if m.Kind == stream.ShardMsgClose {
				at := x.tr.now()
				x.mu.Lock()
				x.closeAt[shardRound{run.Shard, m.Round}] = at
				x.mu.Unlock()
			}
			select {
			case in <- m:
			case <-run.Stop:
				return
			case <-done:
				return
			}
		}
	}()

	var first sync.Once
	emit := run.Emit
	wrapped := run
	wrapped.In = in
	wrapped.Emit = func(o stream.ShardOut) bool {
		at := x.tr.now()
		if spawn {
			first.Do(func() { x.tr.opLeaf("shardrpc.spawn", layerShardRPC, start, at, 0) })
		}
		x.emits.Add(1)
		x.mu.Lock()
		cw := x.wire[run.Shard]
		if cw == nil {
			cw = &countWriter{}
			x.wire[run.Shard] = cw
			x.enc[run.Shard] = gob.NewEncoder(cw)
		}
		before := cw.n
		if err := x.enc[run.Shard].Encode(&o); err != nil {
			x.encodeErrs.Add(1)
		}
		x.wireBytes.Add(cw.n - before)
		key := shardRound{run.Shard, o.Round}
		closed, ok := x.closeAt[key]
		ok = ok && o.Kind == stream.ShardOutRound
		if ok {
			delete(x.closeAt, key)
		}
		x.mu.Unlock()
		if ok {
			x.tr.opLeaf("shardrpc.round", layerShardRPC, closed, at, int64(len(o.Sealed)))
		}
		return emit(o)
	}
	x.inner.RunShard(wrapped)
	close(done)
	wg.Wait()
}
