package stream

import (
	"fmt"
	"time"

	"evmatching/internal/feature"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// This file is the shard seam: the one shard windower, the one incarnation
// loop that drives it, and the exported types through which a Router can
// drive windowers that live outside its own process. The router's
// in-process incarnations and RunShardInProcess both run ShardWindower.run;
// a worker process steps the same windower through the exported Step. All
// three seal buckets in ShardWindower.step, so a remote shard's emissions
// are bit-identical to an in-process shard's, and the shard-invariance
// battery pins remote ≡ in-process ≡ unsharded ≡ batch.
//
// internal/shardrpc builds on this seam: its supervisor implements
// ShardRunner by proxying ShardRun over net/rpc to a worker process that
// hosts a ShardWindower, and falls back to RunShardInProcess when no worker
// can be had.

// ShardParams is the windowing/extraction slice of a RouterConfig that a
// shard windower needs — the full Config carries process-local state
// (Clock, Metrics, target sets) that must not cross the wire.
type ShardParams struct {
	// WindowMS is the event-time window width.
	WindowMS int64
	// Dim is the feature descriptor dimensionality.
	Dim int
	// WorkFactor scales the extraction work per patch.
	WorkFactor int
	// LeaseTTL is the shard liveness lease; runners derive their renewal
	// cadence from it.
	LeaseTTL time.Duration
}

// validate guards windower construction against hostile wire values: a zero
// window would divide by zero in the bucket assignment.
func (p ShardParams) validate() error {
	if p.WindowMS <= 0 {
		return fmt.Errorf("%w: shard window %dms", ErrBadConfig, p.WindowMS)
	}
	if p.Dim < 2 {
		return fmt.Errorf("%w: shard dim %d", ErrBadConfig, p.Dim)
	}
	if p.WorkFactor < 1 {
		return fmt.Errorf("%w: shard work factor %d", ErrBadConfig, p.WorkFactor)
	}
	return nil
}

// ShardSealed is one sealed (window, cell) closure in wire form: the
// EScenario's EID map flattened to a sorted slice (the same canonical form
// checkpoints use, so gob encoding is deterministic) and the extracted
// feature matrix flattened row-major. An empty Dets means the bucket sealed
// with no V side; an empty Feat means extraction was not performed (or
// failed) and the merge stage re-extracts lazily.
type ShardSealed struct {
	Window  int
	Cell    geo.CellID
	EIDs    []BucketEID
	Dets    []scenario.Detection
	FeatDim int
	Feat    []float64
}

// ShardOut is one shard emission in wire form: a round of sealed window
// closures, or a sub-checkpoint snapshot acknowledging a journal position.
type ShardOut struct {
	Kind ShardOutKind

	// Round/Target/MaxTS echo the close round (Kind == ShardOutRound).
	Round  int
	Target int
	MaxTS  int64
	Sealed []ShardSealed

	// SnapPos/Snapshot carry a sub-checkpoint (Kind == ShardOutSnap).
	SnapPos  int64
	Snapshot []ShardBucket
}

// sealedToWire flattens one sealed closure for the wire. The EID map is
// walked in sorted order and the feature matrix copied row-major, so two
// identical closures always serialize identically.
func sealedToWire(s sealedScenario) ShardSealed {
	w := ShardSealed{Window: s.key.Window, Cell: s.key.Cell}
	if s.esc != nil && len(s.esc.EIDs) > 0 {
		w.EIDs = make([]BucketEID, 0, len(s.esc.EIDs))
		for _, eid := range ids.SortedEIDKeys(s.esc.EIDs) {
			w.EIDs = append(w.EIDs, BucketEID{EID: eid, Attr: s.esc.EIDs[eid]})
		}
	}
	if s.vsc != nil && len(s.vsc.Detections) > 0 {
		w.Dets = append(make([]scenario.Detection, 0, len(s.vsc.Detections)), s.vsc.Detections...)
	}
	if s.feats != nil {
		w.FeatDim = s.feats.Dim()
		w.Feat = make([]float64, 0, s.feats.Dim()*s.feats.Rows())
		for i := 0; i < s.feats.Rows(); i++ {
			w.Feat = append(w.Feat, s.feats.Row(i)...)
		}
	}
	return w
}

// toSealed reconstructs the merge-stage form of a wire closure. A feature
// payload whose shape does not match the detections is dropped rather than
// trusted — the merge-side filter then re-extracts lazily, which computes
// the identical matrix, so a mangled (or hostile) payload can cost time but
// never correctness.
func (w ShardSealed) toSealed() sealedScenario {
	k := bucketKey{Window: w.Window, Cell: w.Cell}
	esc := &scenario.EScenario{Cell: w.Cell, Window: w.Window, EIDs: make(map[ids.EID]scenario.Attr, len(w.EIDs))}
	for _, ea := range w.EIDs {
		esc.EIDs[ea.EID] = ea.Attr
	}
	s := sealedScenario{key: k, esc: esc}
	if len(w.Dets) == 0 {
		return s
	}
	dets := append(make([]scenario.Detection, 0, len(w.Dets)), w.Dets...)
	s.vsc = &scenario.VScenario{Cell: w.Cell, Window: w.Window, Detections: dets}
	if w.FeatDim > 0 && len(w.Feat) == w.FeatDim*len(dets) {
		if m, err := feature.NewMatrix(w.FeatDim, len(dets)); err == nil {
			for i := range dets {
				copy(m.Row(i), w.Feat[i*w.FeatDim:(i+1)*w.FeatDim])
			}
			s.feats = m
		}
	}
	return s
}

// toWire flattens one emission for a runner: the form RunShardInProcess
// hands to ShardRun.Emit and a worker process returns over the wire.
func (o shardOut) toWire() ShardOut {
	w := ShardOut{
		Kind:     o.kind,
		Round:    o.round,
		Target:   o.target,
		MaxTS:    o.maxTS,
		SnapPos:  o.snapPos,
		Snapshot: o.snapshot,
	}
	if o.kind == ShardOutRound {
		w.Sealed = make([]ShardSealed, 0, len(o.sealed))
		for _, s := range o.sealed {
			w.Sealed = append(w.Sealed, sealedToWire(s))
		}
	}
	return w
}

// outFromWire adapts a runner emission to the merge-stage channel form.
func outFromWire(shard int, o ShardOut) shardOut {
	out := shardOut{
		shard:    shard,
		kind:     o.Kind,
		round:    o.Round,
		target:   o.Target,
		maxTS:    o.MaxTS,
		snapPos:  o.SnapPos,
		snapshot: o.Snapshot,
	}
	if o.Kind == ShardOutRound {
		out.sealed = make([]sealedScenario, 0, len(o.Sealed))
		for _, s := range o.Sealed {
			out.sealed = append(out.sealed, s.toSealed())
		}
	}
	return out
}

// ShardWindower is one shard's pure event-time accumulator over its cell
// range: it absorbs routed observations into buckets, seals and extracts
// every bucket below the target on a close round, and answers
// sub-checkpoint requests with a deep-copied bucket image. All global state
// — watermark, partition, resolutions — lives in the router and merge
// stage, which is what makes shard death recoverable by pure replay. It is
// not safe for concurrent use; the caller serializes Step.
type ShardWindower struct {
	p       ShardParams
	buckets map[bucketKey]*bucket
	xt      feature.Extractor
	xbuf    feature.ExtractBuf
}

// NewShardWindower builds a windower restored from a sub-checkpoint image
// (nil for a fresh shard).
func NewShardWindower(p ShardParams, initial []ShardBucket) (*ShardWindower, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	w := &ShardWindower{}
	w.init(p, initial)
	return w, nil
}

// init resets w to p's windower restored from initial, without checking p
// — the router's in-process incarnations pass its already validated config
// and keep the windower on their goroutine's stack.
func (w *ShardWindower) init(p ShardParams, initial []ShardBucket) {
	w.p = p
	w.buckets = make(map[bucketKey]*bucket, len(initial))
	w.xt = feature.Extractor{Dim: p.Dim, WorkFactor: p.WorkFactor}
	for _, cb := range initial {
		w.buckets[bucketKey{Window: cb.Window, Cell: cb.Cell}] = bucketFromCheckpoint(cb)
	}
}

// Step applies one untrusted message and returns the emission it produces
// in wire form, if any. It is step behind a guard: hostile input — an
// invalid observation or unknown kind — errors without panicking, and the
// windower's state is unchanged by a failed Step.
func (w *ShardWindower) Step(m ShardMsg) (*ShardOut, error) {
	if m.Kind == ShardMsgObs {
		if err := m.Obs.Validate(); err != nil {
			return nil, err
		}
	}
	out, err := w.step(m)
	if err != nil || out.kind == 0 {
		return nil, err
	}
	wire := out.toWire()
	return &wire, nil
}

// step applies one journalled message, whose observation the router
// validated at Ingest, and returns the emission it produces (kind 0 when it
// produces none). Observations absorb into their bucket; close rounds seal
// every bucket below the target in ascending (window, cell) order with
// features extracted shard-side; snapshot requests return a deep-copied
// bucket image stamped with the journal position. This is the only place
// shard buckets are sealed.
func (w *ShardWindower) step(m ShardMsg) (shardOut, error) {
	switch m.Kind {
	case ShardMsgObs:
		k := bucketKey{Window: int(m.Obs.TS / w.p.WindowMS), Cell: m.Obs.Cell}
		b := w.buckets[k]
		if b == nil {
			b = newBucket()
			w.buckets[k] = b
		}
		b.absorb(m.Obs)
		return shardOut{}, nil
	case ShardMsgClose:
		var keys []bucketKey
		for k := range w.buckets {
			if k.Window < m.Target {
				keys = append(keys, k)
			}
		}
		sortBucketKeys(keys)
		sealed := make([]sealedScenario, 0, len(keys))
		for _, k := range keys {
			esc, vsc := sealBucket(k, w.buckets[k])
			sealed = append(sealed, sealedScenario{key: k, esc: esc, vsc: vsc, feats: extractSealed(w.xt, vsc, &w.xbuf)})
			delete(w.buckets, k)
		}
		return shardOut{kind: ShardOutRound, round: m.Round, target: m.Target, maxTS: m.MaxTS, sealed: sealed}, nil
	case ShardMsgSnap:
		keys := make([]bucketKey, 0, len(w.buckets))
		for k := range w.buckets {
			keys = append(keys, k)
		}
		sortBucketKeys(keys)
		snap := make([]ShardBucket, 0, len(keys))
		for _, k := range keys {
			snap = append(snap, bucketToCheckpoint(k, w.buckets[k]))
		}
		return shardOut{kind: ShardOutSnap, snapPos: m.Pos, snapshot: snap}, nil
	}
	return shardOut{}, fmt.Errorf("stream: unknown shard message kind %d", m.Kind)
}

// extractSealed extracts a sealed V-Scenario's features on the shard
// goroutine — the visual-processing cost that dominates window closure, paid
// here in parallel across shards instead of serially in the merge stage
// (which primes its filter cache with the result). The extractor is a pure
// function of the patch bytes, so shard-side extraction is bit-identical to
// the merge-side lazy path. On any failure it returns nil and the merge-side
// filter re-extracts lazily, surfacing the identical error at Match time.
func extractSealed(xt feature.Extractor, vsc *scenario.VScenario, buf *feature.ExtractBuf) *feature.Matrix {
	if vsc == nil || len(vsc.Detections) == 0 {
		return nil
	}
	m, err := feature.NewMatrix(xt.Dim, len(vsc.Detections))
	if err != nil {
		return nil
	}
	for i := range vsc.Detections {
		if err := xt.ExtractIntoBuf(vsc.Detections[i].Patch, m.Row(i), buf); err != nil {
			return nil
		}
	}
	return m
}

// incarnation identifies one run of a shard windower and carries its
// message stream.
type incarnation struct {
	shard, number int
	in            <-chan ShardMsg
	stop          <-chan struct{} // closes when superseded or shut down
	leaseTTL      time.Duration
}

// shardHost is the side of an incarnation the loop reports to: the Router
// for its own in-process incarnations, a ShardRun for RunShardInProcess.
type shardHost interface {
	// renewShard renews the incarnation's liveness lease; false means it
	// was superseded.
	renewShard(inc incarnation) bool
	// emit delivers one emission; false means the incarnation was stopped.
	emit(o shardOut, stop <-chan struct{}) bool
	// injectFault runs before each message with its 1-based step number;
	// false ends the incarnation (an injected kill).
	injectFault(inc incarnation, step int) bool
}

// run is the one shard incarnation loop: it steps the windower through the
// message stream until stop closes, renewing the lease from a ticker while
// idle (an empty queue must not read as death) and every renewEveryMsgs
// messages while busy. Any false host return ends the incarnation.
func (w *ShardWindower) run(inc incarnation, host shardHost) {
	tick := time.NewTicker(inc.leaseTTL / 4)
	defer tick.Stop()
	step := 0
	for {
		select {
		case <-inc.stop:
			return
		case <-tick.C:
			if !host.renewShard(inc) {
				return
			}
		case m := <-inc.in:
			step++
			if !host.injectFault(inc, step) {
				return
			}
			out, err := w.step(m)
			if err != nil {
				// The router never journals an unknown kind, so an error
				// here means the run itself is corrupt; stand down and let
				// the lease-based failure detector redispatch.
				return
			}
			if out.kind != 0 {
				out.shard = inc.shard
				if !host.emit(out, inc.stop) {
					return
				}
			}
			if step%renewEveryMsgs == 0 && !host.renewShard(inc) {
				return
			}
		}
	}
}

// ShardRun is one shard incarnation handed to a ShardRunner: the restore
// image, the message stream, and the callbacks wiring the runner back into
// the router's emission, lease, and failure-detection machinery. In, Stop,
// Emit, and Renew are scoped to this incarnation — once the router
// redispatches the shard, Renew returns false and Emit's deliveries are
// deduplicated away, so a stale runner can wind down at its leisure.
type ShardRun struct {
	// Shard and Incarnation identify the run.
	Shard       int
	Incarnation int
	// Params configures the windower.
	Params ShardParams
	// Initial is the sub-checkpoint image to restore from (nil = fresh).
	Initial []ShardBucket
	// In carries the journalled message stream.
	In <-chan ShardMsg
	// Stop closes when the incarnation is superseded or the router closes.
	Stop <-chan struct{}
	// Emit delivers one emission to the merge stage. A false return means
	// the incarnation was stopped; the runner should return promptly.
	Emit func(ShardOut) bool
	// Renew renews the shard's liveness lease. A false return means the
	// lease was superseded; the runner should return promptly.
	Renew func() bool
	// Redispatch asks the router to declare this incarnation dead now and
	// hand the shard to a replacement — the supervisor calls it the moment
	// a worker process dies, instead of waiting out the lease. It is a
	// no-op if the incarnation was already superseded.
	Redispatch func() error
}

// ShardRunner runs shard incarnations on behalf of a Router. RunShard is
// called on a fresh goroutine per incarnation and must not return until the
// run is stopped, superseded, or finished failing over (it may call
// run.Redispatch and then return). internal/shardrpc's Supervisor is the
// cross-process implementation.
type ShardRunner interface {
	RunShard(run ShardRun)
}

// RunShardInProcess drives a ShardRun on a local ShardWindower through the
// same incarnation loop as the router's in-process shards, emitting in wire
// form — the fallback path a supervisor uses when no worker process can be
// spawned, and the reference implementation of the seam's contract. run.In
// carries the router's journal, whose observations Ingest validated.
func RunShardInProcess(run ShardRun) {
	w, err := NewShardWindower(run.Params, run.Initial)
	if err != nil {
		return
	}
	ttl := run.Params.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultShardLeaseTTL
	}
	w.run(incarnation{
		shard:    run.Shard,
		number:   run.Incarnation,
		in:       run.In,
		stop:     run.Stop,
		leaseTTL: ttl,
	}, runHost{run})
}

// runHost adapts a ShardRun's callbacks to the incarnation loop.
type runHost struct{ run ShardRun }

func (h runHost) renewShard(incarnation) bool {
	return h.run.Renew == nil || h.run.Renew()
}

func (h runHost) emit(o shardOut, _ <-chan struct{}) bool {
	return h.run.Emit(o.toWire())
}

func (runHost) injectFault(incarnation, int) bool { return true }
