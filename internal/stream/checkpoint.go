package stream

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"

	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// CheckpointVersion is the checkpoint format version this package writes.
// Version 3 is the sharded layout: a global section (closed scenarios,
// resolutions, counters) plus one sub-checkpoint section of open buckets per
// shard. The unsharded Engine writes it too, as a 1-shard image, and both
// Restore and RestoreRouter redistribute the open buckets, so an image
// written under any shard count restores into either topology under any
// other.
const CheckpointVersion = 3

// checkpointV2 is the single-engine format that held every open bucket in
// one Buckets list. It is no longer written, only read.
const checkpointV2 = 2

// ErrBadCheckpoint reports a checkpoint that cannot be restored.
var ErrBadCheckpoint = errors.New("stream: bad checkpoint")

// checkpointScenario is one closed EV-Scenario pair, saved in store-ID order
// so restore re-adds them with identical IDs. The E side is flattened: an
// EScenario holds its EID set as a map, which gob would encode in randomized
// order, so the set is saved as a sorted (EID, attr) slice instead — every
// field reachable from checkpointFile must encode deterministically (the
// gobdet analyzer enforces this).
type checkpointScenario struct {
	Cell   geo.CellID
	Window int
	EIDs   []BucketEID
	V      scenario.VScenario
	HasV   bool
}

// BucketEID is one (EID, attr) entry of an open bucket, slice-encoded in
// sorted order for stable checkpoint bytes.
type BucketEID struct {
	EID  ids.EID
	Attr scenario.Attr
}

// ShardBucket is one open (window, cell) bucket.
type ShardBucket struct {
	Window int
	Cell   geo.CellID
	EIDs   []BucketEID
	Dets   []scenario.Detection
}

// shardCheckpoint is one shard's sub-checkpoint: its open bucket images in
// ascending (window, cell) order.
type shardCheckpoint struct {
	Shard   int
	Buckets []ShardBucket
}

// checkpointFile is the complete gob-encoded stream state, written by the
// Engine (as one shard) and the Router alike. The partition and the vfilter
// cache are deliberately absent: both are pure functions of the closed
// scenarios, so restore rebuilds them by replaying SplitBy in store-ID order
// — smaller checkpoints, and no risk of persisting internal state that
// drifts from the data (DESIGN.md §10). Everything reachable from here
// encodes deterministically (sorted slices, no maps — the gobdet analyzer
// enforces this), preserving the checkpoint → restore → re-checkpoint
// byte-identity property.
type checkpointFile struct {
	Version int
	Shards  int

	// Config guard: a checkpoint only restores into an engine windowing and
	// matching identically.
	WindowMS   int64
	LatenessMS int64
	Seed       int64
	Dim        int
	Targets    []ids.EID

	// Ingested is the number of observations consumed (accepted or dropped)
	// — the log offset a resumed replayer skips to.
	Ingested    int64
	LateDropped int64
	MaxTS       int64
	MinOpen     int
	Seq         int

	Scenarios   []checkpointScenario
	Resolutions []Resolution
	Accepted    []ids.VID
	Resolved    []ids.EID

	// Buckets is kept only so v2 images, which carried their open buckets
	// here, can still be read; v3 images carry ShardBuckets and leave it
	// empty. gob matches fields by name, so both versions decode into this
	// one type.
	Buckets      []ShardBucket
	ShardBuckets []shardCheckpoint
}

// Checkpoint serializes the engine's full stream state — closed scenarios,
// open buckets, emitted resolutions, and counters — as a 1-shard v3 image.
// A consumer that persists the checkpoint together with the ingested-count
// offset can crash and resume, unsharded or sharded, without reprocessing
// the log from the start.
func (e *Engine) Checkpoint(w io.Writer) error {
	e.mu.Lock()
	cp, err := e.checkpointLocked()
	e.mu.Unlock()
	if err != nil {
		return err
	}
	return encodeCheckpoint(w, &cp)
}

// encodeCheckpoint writes one checkpoint image.
func encodeCheckpoint(w io.Writer, cp *checkpointFile) error {
	if err := gob.NewEncoder(w).Encode(cp); err != nil {
		return fmt.Errorf("stream: encode checkpoint: %w", err)
	}
	return nil
}

// checkpointLocked builds the engine's checkpoint image, with its open
// buckets as the single shard section. Evicted V payloads are paged back in
// transiently — the checkpoint always carries the full state — and a reload
// failure fails the checkpoint rather than silently persisting a scenario as
// detection-free. Callers hold e.mu.
func (e *Engine) checkpointLocked() (checkpointFile, error) {
	cp := checkpointFile{
		Version:     CheckpointVersion,
		Shards:      1,
		WindowMS:    e.cfg.WindowMS,
		LatenessMS:  e.cfg.LatenessMS,
		Seed:        e.cfg.Seed,
		Dim:         e.cfg.Dim,
		Targets:     e.cfg.Targets,
		Ingested:    e.ingested,
		LateDropped: e.lateDropped,
		MaxTS:       e.maxTS,
		MinOpen:     e.minOpen,
		Seq:         e.seq,
		Resolutions: e.emitted,
		Accepted:    ids.SortedVIDKeys(e.accepted),
		Resolved:    ids.SortedEIDKeys(e.resolved),
	}
	for id := scenario.ID(0); int(id) < e.store.Len(); id++ {
		esc := e.store.E(id)
		cs := checkpointScenario{Cell: esc.Cell, Window: esc.Window}
		for _, eid := range ids.SortedEIDKeys(esc.EIDs) {
			cs.EIDs = append(cs.EIDs, BucketEID{EID: eid, Attr: esc.EIDs[eid]})
		}
		v, err := e.store.VChecked(id)
		if err != nil {
			return checkpointFile{}, fmt.Errorf("stream: checkpoint scenario %d: %w", id, err)
		}
		if v != nil {
			cs.V = *v
			cs.HasV = true
		}
		cp.Scenarios = append(cp.Scenarios, cs)
	}
	keys := make([]bucketKey, 0, len(e.buckets))
	for k := range e.buckets {
		keys = append(keys, k)
	}
	sortBucketKeys(keys)
	open := make([]ShardBucket, 0, len(keys))
	for _, k := range keys {
		open = append(open, bucketToCheckpoint(k, e.buckets[k]))
	}
	cp.ShardBuckets = []shardCheckpoint{{Shard: 0, Buckets: open}}
	return cp, nil
}

// bucketToCheckpoint flattens one open bucket into its checkpoint form: the
// EID map becomes a sorted (EID, attr) slice and the detections are deep-
// copied, so the image stays valid while the live bucket keeps absorbing —
// the router's sub-checkpoint snapshots outlive the shard that emitted them.
func bucketToCheckpoint(k bucketKey, b *bucket) ShardBucket {
	cb := ShardBucket{
		Window: k.Window,
		Cell:   k.Cell,
		Dets:   append(make([]scenario.Detection, 0, len(b.dets)), b.dets...),
	}
	for _, eid := range ids.SortedEIDKeys(b.eids) {
		cb.EIDs = append(cb.EIDs, BucketEID{EID: eid, Attr: b.eids[eid]})
	}
	return cb
}

// bucketFromCheckpoint rebuilds an open bucket from its checkpoint form,
// deep-copying the detections so restored buckets never share backing arrays
// with the image they came from (a redispatched shard and its stale
// predecessor may both restore from the same sub-checkpoint).
func bucketFromCheckpoint(cb ShardBucket) *bucket {
	b := &bucket{
		eids:    make(map[ids.EID]scenario.Attr, len(cb.EIDs)),
		detSeen: make(map[string]bool, len(cb.Dets)),
	}
	for _, ea := range cb.EIDs {
		b.eids[ea.EID] = ea.Attr
	}
	b.dets = append(make([]scenario.Detection, 0, len(cb.Dets)), cb.Dets...)
	for i := range b.dets {
		b.detSeen[detMergeKey(b.dets[i].VID, b.dets[i].TruePerson, &b.dets[i].Patch)] = true
	}
	return b
}

// decodeCheckpoint reads one image of either readable version — the shared
// decoder behind Restore and RestoreRouter — and returns it with its open
// buckets: a v2 image's Buckets, or every shard section of a v3 image
// written under any shard count. Callers redistribute the buckets over
// their own topology.
func decodeCheckpoint(r io.Reader) (*checkpointFile, []ShardBucket, error) {
	var cp checkpointFile
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return nil, nil, fmt.Errorf("%w: decode: %w", ErrBadCheckpoint, err)
	}
	var open []ShardBucket
	switch cp.Version {
	case checkpointV2:
		if len(cp.ShardBuckets) != 0 {
			return nil, nil, fmt.Errorf("%w: v2 checkpoint carries shard sections", ErrBadCheckpoint)
		}
		open = cp.Buckets
	case CheckpointVersion:
		if len(cp.Buckets) != 0 {
			return nil, nil, fmt.Errorf("%w: v3 checkpoint carries unsharded buckets", ErrBadCheckpoint)
		}
		for _, sc := range cp.ShardBuckets {
			open = append(open, sc.Buckets...)
		}
	default:
		return nil, nil, fmt.Errorf("%w: version %d (want %d or %d)", ErrBadCheckpoint, cp.Version, checkpointV2, CheckpointVersion)
	}
	for _, cb := range open {
		if cb.Cell < 0 {
			return nil, nil, fmt.Errorf("%w: bucket cell %d", ErrBadCheckpoint, cb.Cell)
		}
	}
	return &cp, open, nil
}

// Restore builds an Engine from cfg and resumes it from a checkpoint
// written by Engine.Checkpoint or Router.Checkpoint under any shard count,
// or from a v2 image. The checkpoint's windowing and matching parameters
// must match cfg; runtime-only fields (Clock, Metrics, Mode, Workers) come
// from cfg alone.
func Restore(cfg Config, r io.Reader) (*Engine, error) {
	cp, open, err := decodeCheckpoint(r)
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.restoreGlobal(cp); err != nil {
		return nil, err
	}
	for _, cb := range open {
		e.buckets[bucketKey{Window: cb.Window, Cell: cb.Cell}] = bucketFromCheckpoint(cb)
	}
	e.mu.Lock()
	e.publishGauges()
	e.mu.Unlock()
	return e, nil
}

// restoreGlobal applies a decoded checkpoint's global section to a fresh
// engine: it rejects a checkpoint whose windowing or matching parameters
// disagree with the engine's config, re-adds the closed scenarios in ID
// order (the fresh store assigns the same IDs) replaying the split — the
// partition is a pure fold over them — and applies the counters,
// resolutions, and rule-out sets. The open buckets are the caller's to
// place.
func (e *Engine) restoreGlobal(cp *checkpointFile) error {
	switch {
	case cp.WindowMS != e.cfg.WindowMS:
		return fmt.Errorf("%w: window %d ms vs config %d ms", ErrBadCheckpoint, cp.WindowMS, e.cfg.WindowMS)
	case cp.LatenessMS != e.cfg.LatenessMS:
		return fmt.Errorf("%w: lateness %d ms vs config %d ms", ErrBadCheckpoint, cp.LatenessMS, e.cfg.LatenessMS)
	case cp.Seed != e.cfg.Seed:
		return fmt.Errorf("%w: seed %d vs config %d", ErrBadCheckpoint, cp.Seed, e.cfg.Seed)
	case cp.Dim != e.cfg.Dim:
		return fmt.Errorf("%w: dim %d vs config %d", ErrBadCheckpoint, cp.Dim, e.cfg.Dim)
	case !slices.Equal(cp.Targets, e.cfg.Targets):
		return fmt.Errorf("%w: target set differs from config", ErrBadCheckpoint)
	}
	for i := range cp.Scenarios {
		cs := &cp.Scenarios[i]
		esc := &scenario.EScenario{
			Cell:   cs.Cell,
			Window: cs.Window,
			EIDs:   make(map[ids.EID]scenario.Attr, len(cs.EIDs)),
		}
		for _, ea := range cs.EIDs {
			esc.EIDs[ea.EID] = ea.Attr
		}
		var vsc *scenario.VScenario
		if cs.HasV {
			vsc = &cs.V
		}
		id, err := e.store.Add(esc, vsc)
		if err != nil {
			return fmt.Errorf("%w: scenario %d: %w", ErrBadCheckpoint, i, err)
		}
		if int(id) != i {
			return fmt.Errorf("%w: scenario %d re-added as %d", ErrBadCheckpoint, i, id)
		}
		// The same pruning path the live engine used: scenarios were closed
		// (and thus applied) in store-ID order, so the replay walks the
		// identical live-set evolution and rebuilds the partition, the
		// blocking state, and the prune counters deterministically.
		e.splitSealedLocked(esc)
		// Restored payloads count against the memory budget exactly like
		// freshly sealed ones, so a restored engine re-evicts down to budget
		// instead of holding the whole checkpoint resident.
		if err := e.noteSealedLocked(id, vsc); err != nil {
			return fmt.Errorf("%w: scenario %d: %w", ErrBadCheckpoint, i, err)
		}
	}
	e.ingested = cp.Ingested
	e.lateDropped = cp.LateDropped
	e.maxTS = cp.MaxTS
	e.minOpen = cp.MinOpen
	e.seq = cp.Seq
	e.emitted = cp.Resolutions
	for _, eid := range cp.Resolved {
		e.resolved[eid] = true
	}
	for _, vid := range cp.Accepted {
		e.accepted[vid] = true
	}
	return nil
}
