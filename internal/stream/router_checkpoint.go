package stream

import (
	"io"
	"time"
)

// Checkpoint serializes the router's full sharded state. It is a barrier:
// every shard is asked for a fresh sub-checkpoint and every issued close
// round must fold before the image is written, so the checkpoint captures a
// consistent cut — the global section reflects exactly the closures the
// sub-checkpoints no longer contain. A shard that dies during the barrier
// is redispatched and the barrier completes through its replacement.
func (r *Router) Checkpoint(w io.Writer) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrRouterClosed
	}
	want := make([]int64, len(r.slots))
	for i := range r.slots {
		slot := &r.slots[i]
		r.sendLocked(slot, ShardMsg{Kind: ShardMsgSnap})
		slot.pendingSnap = slot.sent
		want[i] = slot.sent
	}
	round := r.round
	if err := r.awaitBarrierLocked(want, round); err != nil {
		r.mu.Unlock()
		return err
	}
	for i := range r.slots {
		r.adoptAckLocked(&r.slots[i])
	}
	r.merged.mu.Lock()
	cp, err := r.merged.checkpointLocked()
	r.merged.mu.Unlock()
	if err != nil {
		r.mu.Unlock()
		return err
	}
	// The merged engine holds the global section; the watermark, ingest
	// counters, and open buckets are the router's.
	cp.Shards = r.cfg.Shards
	cp.Ingested, cp.LateDropped = r.ingested, r.lateDropped
	cp.MaxTS, cp.MinOpen = r.maxTS, r.minOpen
	cp.ShardBuckets = make([]shardCheckpoint, len(r.slots))
	for i := range r.slots {
		cp.ShardBuckets[i] = shardCheckpoint{Shard: i, Buckets: r.slots[i].snapBuckets}
	}
	r.mu.Unlock()
	return encodeCheckpoint(w, &cp)
}

// awaitBarrierLocked waits until every shard's sub-checkpoint ack has
// reached the wanted position and the merge stage has folded every issued
// round, redispatching dead shards so the barrier always completes. Callers
// hold r.mu; holding it through the wait is deliberate — a checkpoint is an
// ingest barrier, and the shards and merger it waits on never take r.mu.
func (r *Router) awaitBarrierLocked(want []int64, round int) error {
	//evlint:ignore lockbalance condition-wait loop: drops the caller-held r.mu across each sleep and reacquires before retesting, net-neutral per iteration
	for {
		folded, err := r.progress()
		if err != nil {
			return err
		}
		if folded >= round {
			r.snapMu.Lock()
			done := true
			for i, w := range want {
				if r.acks[i].pos < w {
					done = false
					break
				}
			}
			r.snapMu.Unlock()
			if done {
				return nil
			}
		}
		r.redispatchExpiredLocked()
		//evlint:ignore lockbalance releases the caller-held r.mu for the sleep; reacquired two lines down
		r.mu.Unlock()
		time.Sleep(sendRetryDelay)
		r.mu.Lock()
	}
}

// RestoreRouter builds a Router from cfg and resumes it from a checkpoint
// written by Router.Checkpoint or Engine.Checkpoint, or from a v2 image.
// Open buckets are redistributed by ShardOf under cfg's shard count, so a
// checkpoint written under any shard count restores under any other.
func RestoreRouter(cfg RouterConfig, rd io.Reader) (*Router, error) {
	cp, open, err := decodeCheckpoint(rd)
	if err != nil {
		return nil, err
	}
	return newRouter(cfg, cp, open)
}
