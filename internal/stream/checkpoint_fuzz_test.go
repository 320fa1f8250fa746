package stream

import (
	"bytes"
	"errors"
	"testing"

	"evmatching/internal/core"
)

// restoreSeedImages builds the decoder's seed images over one log prefix: a
// v2 image, a 1-shard v3 image (Engine.Checkpoint) and a 3-shard v3 image
// (Router.Checkpoint), plus the config all three restore under.
func restoreSeedImages(tb testing.TB) (Config, [][]byte) {
	tb.Helper()
	ds := testDataset(tb, true)
	_, obs, err := EventsFromDataset(ds, testWindowMS, 7)
	if err != nil {
		tb.Fatalf("EventsFromDataset: %v", err)
	}
	cfg := testConfig(ds, ds.AllEIDs()[:4], core.ModeSerial)
	cut := len(obs) / 5
	e, err := NewEngine(cfg)
	if err != nil {
		tb.Fatalf("NewEngine: %v", err)
	}
	r, err := NewRouter(RouterConfig{Config: cfg, Shards: 3})
	if err != nil {
		tb.Fatalf("NewRouter: %v", err)
	}
	defer r.Close()
	for i := 0; i < cut; i++ {
		if _, err := e.Ingest(obs[i]); err != nil {
			tb.Fatalf("Engine.Ingest %d: %v", i, err)
		}
		if _, err := r.Ingest(obs[i]); err != nil {
			tb.Fatalf("Router.Ingest %d: %v", i, err)
		}
	}
	var v3, sharded bytes.Buffer
	if err := e.Checkpoint(&v3); err != nil {
		tb.Fatalf("Engine.Checkpoint: %v", err)
	}
	if err := r.Checkpoint(&sharded); err != nil {
		tb.Fatalf("Router.Checkpoint: %v", err)
	}
	return cfg, [][]byte{v2CheckpointBytes(tb, e), v3.Bytes(), sharded.Bytes()}
}

// restoreBoth restores data into an Engine and a 2-shard Router. Both share
// one decoder and one global-section restore, so they must agree; every
// failure must be a wrapped ErrBadCheckpoint.
func restoreBoth(t *testing.T, cfg Config, data []byte) error {
	t.Helper()
	e, errE := Restore(cfg, bytes.NewReader(data))
	r, errR := RestoreRouter(RouterConfig{Config: cfg, Shards: 2}, bytes.NewReader(data))
	if r != nil {
		defer r.Close()
	}
	for _, err := range []error{errE, errR} {
		if err != nil && !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("restore error %v does not wrap ErrBadCheckpoint", err)
		}
	}
	if (errE == nil) != (errR == nil) {
		t.Fatalf("Engine and Router restores disagree: %v vs %v", errE, errR)
	}
	if errE != nil {
		return errE
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatalf("re-checkpoint of a restored engine: %v", err)
	}
	if err := r.Checkpoint(&buf); err != nil {
		t.Fatalf("re-checkpoint of a restored router: %v", err)
	}
	return nil
}

// TestRestoreRejectsTruncatedImages checks that every strict prefix of a
// v2, 1-shard v3 and 3-shard v3 image fails to restore with a wrapped
// ErrBadCheckpoint, into both topologies.
func TestRestoreRejectsTruncatedImages(t *testing.T) {
	cfg, images := restoreSeedImages(t)
	for i, img := range images {
		if err := restoreBoth(t, cfg, img); err != nil {
			t.Fatalf("image %d: intact image failed to restore: %v", i, err)
		}
		for n := 0; n < len(img); n += 1 + len(img)/16 {
			if err := restoreBoth(t, cfg, img[:n]); err == nil {
				t.Fatalf("image %d: %d-byte prefix of %d restored", i, n, len(img))
			}
		}
	}
}

// FuzzRestore feeds hostile bytes to the shared checkpoint decoder through
// Restore and RestoreRouter. Nothing may panic, every error must wrap
// ErrBadCheckpoint, and both topologies must agree on whether the image
// restores. An image whose corruption gob cannot see (a flipped bit inside a
// pixel, say) may restore; the restored processor must still checkpoint.
func FuzzRestore(f *testing.F) {
	cfg, images := restoreSeedImages(f)
	for _, img := range images {
		f.Add(img)
		f.Add(img[:len(img)/2])
		flipped := append([]byte(nil), img...)
		flipped[len(flipped)*2/3] ^= 0x10
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		restoreBoth(t, cfg, data)
	})
}
