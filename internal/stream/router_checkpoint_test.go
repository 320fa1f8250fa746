package stream

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"testing"

	"evmatching/internal/core"
	"evmatching/internal/ids"
)

// checkpointV2File is the v2 single-engine image layout: the fields of the
// v2 checkpointFile, in v2 order. No program code writes v2 any more, so the
// tests encode v2 images through this frozen copy to keep the read path
// covered.
type checkpointV2File struct {
	Version int

	WindowMS   int64
	LatenessMS int64
	Seed       int64
	Dim        int
	Targets    []ids.EID

	Ingested    int64
	LateDropped int64
	MaxTS       int64
	MinOpen     int
	Seq         int

	Scenarios   []checkpointScenario
	Buckets     []ShardBucket
	Resolutions []Resolution
	Accepted    []ids.VID
	Resolved    []ids.EID
}

// v2CheckpointBytes encodes e's state as a v2 image: the global section of
// its 1-shard v3 image with the shard section as the flat bucket list.
func v2CheckpointBytes(t testing.TB, e *Engine) []byte {
	t.Helper()
	e.mu.Lock()
	cp, err := e.checkpointLocked()
	e.mu.Unlock()
	if err != nil {
		t.Fatalf("checkpointLocked: %v", err)
	}
	v2 := checkpointV2File{
		Version:     checkpointV2,
		WindowMS:    cp.WindowMS,
		LatenessMS:  cp.LatenessMS,
		Seed:        cp.Seed,
		Dim:         cp.Dim,
		Targets:     cp.Targets,
		Ingested:    cp.Ingested,
		LateDropped: cp.LateDropped,
		MaxTS:       cp.MaxTS,
		MinOpen:     cp.MinOpen,
		Seq:         cp.Seq,
		Scenarios:   cp.Scenarios,
		Buckets:     cp.ShardBuckets[0].Buckets,
		Resolutions: cp.Resolutions,
		Accepted:    cp.Accepted,
		Resolved:    cp.Resolved,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v2); err != nil {
		t.Fatalf("encode v2 image: %v", err)
	}
	return buf.Bytes()
}

// ingestPrefix feeds obs[:n] to p.
func ingestPrefix(t *testing.T, p Processor, obs []Observation, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := p.Ingest(obs[i]); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
}

// resumeFingerprint checks that p was restored at offset cut, feeds it the
// rest of the log, and finalizes.
func resumeFingerprint(t *testing.T, p Processor, obs []Observation, cut int) string {
	t.Helper()
	if got := p.Ingested(); got != int64(cut) {
		t.Fatalf("Ingested = %d after restore, want %d", got, cut)
	}
	for i := cut; i < len(obs); i++ {
		if _, err := p.Ingest(obs[i]); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	rep, err := p.Finalize(context.Background())
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return rep.Fingerprint()
}

// routerCheckpointBytes serializes r and returns the raw v3 checkpoint.
func routerCheckpointBytes(t *testing.T, r *Router) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return buf.Bytes()
}

// TestRouterCheckpointByteIdentity extends the checkpoint determinism
// property to the sharded format: at any cut point of the log, a 3-shard
// router's checkpoint → restore → re-checkpoint is byte-identical, across
// two generations. The barrier inside Checkpoint makes the image a
// consistent cut, so the property holds even at mid-window cuts where every
// shard holds open buckets.
func TestRouterCheckpointByteIdentity(t *testing.T) {
	ds := testDataset(t, false)
	targets := ds.AllEIDs()[:8]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	rcfg := RouterConfig{Config: testConfig(ds, targets, core.ModeSerial), Shards: 3}

	cuts := []int{0, len(obs) / 4, len(obs)/2 + 7, len(obs) - 1, len(obs)}
	r, err := NewRouter(rcfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer r.Close()
	next := 0
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut-%d", cut), func(t *testing.T) {
			for ; next < cut; next++ {
				if _, err := r.Ingest(obs[next]); err != nil {
					t.Fatalf("Ingest %d: %v", next, err)
				}
			}
			first := routerCheckpointBytes(t, r)
			if second := routerCheckpointBytes(t, r); !bytes.Equal(first, second) {
				t.Fatalf("two checkpoints of the same router differ (len %d vs %d)", len(first), len(second))
			}
			restored, err := RestoreRouter(rcfg, bytes.NewReader(first))
			if err != nil {
				t.Fatalf("RestoreRouter: %v", err)
			}
			defer restored.Close()
			if again := routerCheckpointBytes(t, restored); !bytes.Equal(first, again) {
				t.Fatalf("re-checkpoint after restore differs (len %d vs %d)", len(first), len(again))
			}
			second, err := RestoreRouter(rcfg, bytes.NewReader(first))
			if err != nil {
				t.Fatalf("second RestoreRouter: %v", err)
			}
			defer second.Close()
			if again := routerCheckpointBytes(t, second); !bytes.Equal(first, again) {
				t.Fatalf("second-generation checkpoint differs (len %d vs %d)", len(first), len(again))
			}
		})
	}
}

// TestRouterCheckpointResume checks the functional half of the contract: a
// router checkpointed mid-log and restored — under the same shard count, a
// different one, or into an unsharded Engine, since every restore
// redistributes the shard sections' buckets — resumes the log and finalizes
// to the exact unsharded fingerprint.
func TestRouterCheckpointResume(t *testing.T) {
	ds := testDataset(t, true)
	targets := ds.AllEIDs()[:12]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	cfg := testConfig(ds, targets, core.ModeSerial)
	want := replayFingerprint(t, cfg, obs)

	cut := len(obs)/2 + 3
	src, err := NewRouter(RouterConfig{Config: cfg, Shards: 3})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer src.Close()
	ingestPrefix(t, src, obs, cut)
	image := routerCheckpointBytes(t, src)

	for _, shards := range []int{3, 1, 5} {
		t.Run(fmt.Sprintf("restore-into-%d-shards", shards), func(t *testing.T) {
			r, err := RestoreRouter(RouterConfig{Config: cfg, Shards: shards}, bytes.NewReader(image))
			if err != nil {
				t.Fatalf("RestoreRouter: %v", err)
			}
			defer r.Close()
			if got := resumeFingerprint(t, r, obs, cut); got != want {
				t.Fatalf("resumed %d-shard replay diverged from unsharded replay", shards)
			}
		})
	}
	t.Run("restore-into-engine", func(t *testing.T) {
		e, err := Restore(cfg, bytes.NewReader(image))
		if err != nil {
			t.Fatalf("Restore(3-shard image): %v", err)
		}
		if got := resumeFingerprint(t, e, obs, cut); got != want {
			t.Fatal("engine resumed from a 3-shard image diverged from unsharded replay")
		}
	})
}

// TestEngineCheckpointIsOneShardImage pins that the two writers share one
// format: at every cut, the unsharded engine's checkpoint is byte-identical
// to a 1-shard router's over the same log prefix.
func TestEngineCheckpointIsOneShardImage(t *testing.T) {
	ds := testDataset(t, false)
	targets := ds.AllEIDs()[:8]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	cfg := testConfig(ds, targets, core.ModeSerial)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	r, err := NewRouter(RouterConfig{Config: cfg, Shards: 1})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer r.Close()
	next := 0
	for _, cut := range []int{0, len(obs) / 3, len(obs)/2 + 7, len(obs)} {
		for ; next < cut; next++ {
			if _, err := e.Ingest(obs[next]); err != nil {
				t.Fatalf("Engine.Ingest %d: %v", next, err)
			}
			if _, err := r.Ingest(obs[next]); err != nil {
				t.Fatalf("Router.Ingest %d: %v", next, err)
			}
		}
		if got, want := checkpointBytes(t, e), routerCheckpointBytes(t, r); !bytes.Equal(got, want) {
			t.Fatalf("cut %d: engine checkpoint (len %d) differs from 1-shard router checkpoint (len %d)", cut, len(got), len(want))
		}
	}
}

// TestRouterRestoresV2Checkpoint is the upgrade path: a v2 single-engine
// image restores into a router — the degenerate 1-shard case and a
// redistributing 4-shard case — which resumes the log to the same
// fingerprint.
func TestRouterRestoresV2Checkpoint(t *testing.T) {
	ds := testDataset(t, true)
	targets := ds.AllEIDs()[:12]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	cfg := testConfig(ds, targets, core.ModeSerial)
	want := replayFingerprint(t, cfg, obs)

	cut := len(obs)/3 + 11
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ingestPrefix(t, e, obs, cut)
	v2 := v2CheckpointBytes(t, e)

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("into-%d-shards", shards), func(t *testing.T) {
			r, err := RestoreRouter(RouterConfig{Config: cfg, Shards: shards}, bytes.NewReader(v2))
			if err != nil {
				t.Fatalf("RestoreRouter(v2): %v", err)
			}
			defer r.Close()
			if got := resumeFingerprint(t, r, obs, cut); got != want {
				t.Fatalf("v2-upgraded %d-shard replay diverged from unsharded replay", shards)
			}
		})
	}
}

// TestEngineRestoresV2Checkpoint keeps the unsharded v2 read path: a v2
// image restores into an Engine, whose next checkpoint is the v3 image of
// the same state, and the resumed log finalizes to the uninterrupted
// replay's fingerprint.
func TestEngineRestoresV2Checkpoint(t *testing.T) {
	ds := testDataset(t, true)
	targets := ds.AllEIDs()[:12]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	cfg := testConfig(ds, targets, core.ModeSerial)
	want := replayFingerprint(t, cfg, obs)

	cut := len(obs)/3 + 11
	src, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ingestPrefix(t, src, obs, cut)
	e, err := Restore(cfg, bytes.NewReader(v2CheckpointBytes(t, src)))
	if err != nil {
		t.Fatalf("Restore(v2): %v", err)
	}
	if got, want := checkpointBytes(t, e), checkpointBytes(t, src); !bytes.Equal(got, want) {
		t.Fatalf("v3 checkpoint after v2 restore differs from the source's (len %d vs %d)", len(got), len(want))
	}
	if got := resumeFingerprint(t, e, obs, cut); got != want {
		t.Fatal("engine resumed from a v2 image diverged from unsharded replay")
	}
}

// TestRouterRestoreRejectsMismatchedConfig mirrors the engine guard: a
// checkpoint only restores into a router windowing and matching identically.
func TestRouterRestoreRejectsMismatchedConfig(t *testing.T) {
	ds := testDataset(t, false)
	targets := ds.AllEIDs()[:4]
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		t.Fatalf("EventsFromDataset: %v", err)
	}
	cfg := testConfig(ds, targets, core.ModeSerial)
	r, err := NewRouter(RouterConfig{Config: cfg, Shards: 2})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer r.Close()
	for i := 0; i < 200 && i < len(obs); i++ {
		if _, err := r.Ingest(obs[i]); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	image := routerCheckpointBytes(t, r)

	bad := cfg
	bad.Seed = cfg.Seed + 1
	if _, err := RestoreRouter(RouterConfig{Config: bad, Shards: 2}, bytes.NewReader(image)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("mismatched seed: err = %v, want ErrBadCheckpoint", err)
	}
	if _, err := RestoreRouter(RouterConfig{Config: cfg, Shards: 2}, bytes.NewReader(image[:len(image)/2])); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("truncated image: err = %v, want ErrBadCheckpoint", err)
	}
}
