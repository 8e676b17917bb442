package ckpt

import (
	"bytes"
	"testing"

	"ickpt/wire"
)

func stage1(c *ShadowCache, epoch, id uint64, payload []byte) {
	c.Stage(epoch, []ShadowStage{c.copyPayload(id, payload, wire.DeltaBaseHash(payload))})
}

func TestShadowDecideLifecycle(t *testing.T) {
	c := NewShadowCache(8)
	pay := bytes.Repeat([]byte{0x11, 0x22}, 32)

	if base, _, stage, _ := c.decide(1, 8, Incremental); base != nil || stage {
		t.Fatalf("payload at threshold: base=%v stage=%v, want nil/false", base, stage)
	}
	base, _, stage, _ := c.decide(1, len(pay), Incremental)
	if base != nil || !stage {
		t.Fatalf("first sighting: base=%v stage=%v, want nil/true", base, stage)
	}
	stage1(c, 7, 1, pay)

	// An in-flight pend serves as the base before its epoch commits: its body
	// precedes the next one in the stream.
	base, hash, stage, _ := c.decide(1, len(pay), Incremental)
	if !bytes.Equal(base, pay) || !stage {
		t.Fatalf("pend base: got %v/stage=%v", base, stage)
	}
	_ = hash
	c.CommitEpoch(7, Incremental)
	if got := c.CommittedBase(1); !bytes.Equal(got, pay) {
		t.Fatalf("CommittedBase after commit = %x, want staged payload", got)
	}

	// Full mode refreshes the shadow but never hands out a base.
	if base, _, stage, _ := c.decide(1, len(pay), Full); base != nil || !stage {
		t.Fatalf("full mode: base=%v stage=%v, want nil/true", base, stage)
	}

	// A resize cannot delta (aligned format) but re-establishes the shadow.
	if base, _, stage, _ := c.decide(1, len(pay)+8, Incremental); base != nil || !stage {
		t.Fatalf("resized payload: base=%v stage=%v, want nil/true", base, stage)
	}
}

func TestShadowAbortRestoresCommitted(t *testing.T) {
	c := NewShadowCache(0)
	p1 := bytes.Repeat([]byte{0xaa}, 48)
	p2 := bytes.Repeat([]byte{0xbb}, 48)

	stage1(c, 1, 9, p1)
	c.CommitEpoch(1, Full)
	stage1(c, 2, 9, p2)
	c.AbortEpoch(2)

	if got := c.CommittedBase(9); got != nil {
		t.Fatalf("CommittedBase after abort = %x, want nil (entry stale)", got)
	}
	// The committed bytes themselves must be untouched — only the staleness
	// bit guards them from serving as a base.
	if e := c.entries[9]; !bytes.Equal(e.committed, p1) || !e.stale || len(e.pend) != 0 {
		t.Fatalf("entry after abort: committed=%x stale=%v pends=%d", e.committed, e.stale, len(e.pend))
	}
	if base, _, stage, _ := c.decide(9, 48, Incremental); base != nil || !stage {
		t.Fatalf("post-abort decide: base=%v stage=%v, want nil/true", base, stage)
	}
	// The re-marked emit restages and the entry serves diffs again.
	stage1(c, 3, 9, p1)
	c.CommitEpoch(3, Incremental)
	if got := c.CommittedBase(9); !bytes.Equal(got, p1) {
		t.Fatalf("CommittedBase after restage = %x, want %x", got, p1)
	}
}

// TestShadowAbortDropsLaterPends: aborting an epoch also drops pends of later
// epochs (they were encoded against the lost payload, and a sticky sink
// failure aborts them too), never the earlier committed state.
func TestShadowAbortDropsLaterPends(t *testing.T) {
	c := NewShadowCache(0)
	p := func(b byte) []byte { return bytes.Repeat([]byte{b}, 32) }
	stage1(c, 1, 5, p(1))
	c.CommitEpoch(1, Full)
	stage1(c, 2, 5, p(2))
	stage1(c, 3, 5, p(3))
	c.AbortEpoch(2)
	if e := c.entries[5]; len(e.pend) != 0 || !bytes.Equal(e.committed, p(1)) {
		t.Fatalf("after abort of 2: pends=%d committed=%x", len(e.pend), e.committed)
	}
	// The dangling epoch-3 resolution must be harmless.
	c.AbortEpoch(3)
	c.CommitEpoch(3, Incremental)
}

// TestShadowStalePendNotServed: a pending shadow whose epoch is still
// unacked must stop serving as a diff base once the entry is staled by an
// unstaged superseding emit (a shrink below the floor, or a churn-window
// arming). The pend's bytes are no longer the object's latest payload in the
// durable stream — the unstaged full body is — so a delta against the pend
// would commit a record whose embedded base hash disagrees at recovery.
func TestShadowStalePendNotServed(t *testing.T) {
	t.Run("shrink", func(t *testing.T) {
		c := NewShadowCache(8)
		pay := bytes.Repeat([]byte{0xcd}, 64)
		stage1(c, 1, 3, pay) // epoch 1 stays in flight (unacked)

		// A sub-floor emit ships an unstaged full payload and stales the entry.
		if base, _, stage, _ := c.decide(3, 4, Incremental); base != nil || stage {
			t.Fatalf("shrink emit: base=%v stage=%v, want nil/false", base, stage)
		}
		if e := c.entries[3]; !e.stale || len(e.pend) != 1 {
			t.Fatalf("after shrink: stale=%v pends=%d, want true/1", e.stale, len(e.pend))
		}
		// The regrown emit must not diff against the outdated pend: full
		// payload, restage (which makes the entry serve again).
		base, _, stage, _ := c.decide(3, len(pay), Incremental)
		if base != nil || !stage {
			t.Fatalf("regrown emit served stale pend: base=%v stage=%v, want nil/true", base, stage)
		}
		stage1(c, 2, 3, pay)
		if base, _, _, _ := c.decide(3, len(pay), Incremental); !bytes.Equal(base, pay) {
			t.Fatalf("restaged pend not served: base=%v", base)
		}
	})
	t.Run("window", func(t *testing.T) {
		c := NewShadowCache(0)
		pay := bytes.Repeat([]byte{0xef}, 64)
		stage1(c, 1, 3, pay) // epoch 1 stays in flight (unacked)

		// Two losses arm the churn window, staling the entry while the pend's
		// epoch is unacked.
		c.report(3, false)
		if w := c.report(3, false); w == 0 {
			t.Fatal("two losses did not arm the skip window")
		}
		if base, _, stage, _ := c.decide(3, len(pay), Incremental); base != nil || !stage {
			t.Fatalf("probe emit served stale pend: base=%v stage=%v, want nil/true", base, stage)
		}
	})
}

func TestShadowChurnBackoff(t *testing.T) {
	c := NewShadowCache(0)
	pay := bytes.Repeat([]byte{7}, 64)
	stage1(c, 1, 2, pay)
	c.CommitEpoch(1, Full)

	if w := c.report(2, false); w != 0 {
		t.Fatalf("first loss armed a window of %d, want 0", w)
	}
	w := c.report(2, false) // missBackoff reached: skip window armed
	if w == 0 {
		t.Fatal("two losses did not arm the skip window")
	}
	// Arming stales the entry immediately: the window's emits ship full
	// payloads the shadow never sees, so the base must not serve until a
	// probe restages it.
	if got := c.CommittedBase(2); got != nil {
		t.Fatalf("CommittedBase during skip = %x, want nil", got)
	}
	// The emitter consumes the window from the object's Info without calling
	// back; it flushes the skipped-emit count once per epoch.
	c.addSkipped(w)
	if st := c.Stats(); st.SkippedEmits != w {
		t.Fatalf("SkippedEmits = %d, want %d", st.SkippedEmits, w)
	}
	// After the window drains, the probe emit finds a stale entry: full
	// payload, restage, no new window until the attempt's outcome is in.
	if base, _, stage, win := c.decide(2, len(pay), Incremental); base != nil || !stage || win != 0 {
		t.Fatalf("probe emit: base=%v stage=%v window=%d, want nil/true/0", base, stage, win)
	}
	// Continued losses double the window up to skipMax.
	prev := w
	for i := 0; i < 8; i++ {
		nw := c.report(2, false)
		if nw < prev || nw > skipMax {
			t.Fatalf("loss %d armed window %d (prev %d), want doubling capped at %d", i, nw, prev, skipMax)
		}
		prev = nw
	}
	if prev != skipMax {
		t.Fatalf("window after sustained losses = %d, want cap %d", prev, skipMax)
	}
	// A win resets the miss streak.
	c.report(2, true)
	if e := c.entries[2]; e.miss != 0 {
		t.Fatalf("miss streak after win = %d, want 0", e.miss)
	}
}

func TestShadowFullCommitPrunes(t *testing.T) {
	c := NewShadowCache(0)
	pay := bytes.Repeat([]byte{3}, 16)
	c.Stage(1, []ShadowStage{c.copyPayload(10, pay, wire.DeltaBaseHash(pay)), c.copyPayload(11, pay, wire.DeltaBaseHash(pay))})
	c.CommitEpoch(1, Full)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// Object 11 is absent from the next full checkpoint: dead, pruned.
	stage1(c, 2, 10, pay)
	c.CommitEpoch(2, Full)
	if c.Len() != 1 || c.entries[11] != nil {
		t.Fatalf("full commit did not prune dead entry: Len=%d", c.Len())
	}
	if got := c.count.Load(); got != 1 {
		t.Fatalf("count after prune = %d, want 1", got)
	}
	// An empty full checkpoint prunes everything; count must follow so
	// decide's lock-free sub-floor fast path re-engages.
	c.Stage(3, nil)
	c.CommitEpoch(3, Full)
	if c.Len() != 0 || c.count.Load() != 0 {
		t.Fatalf("empty full commit: Len=%d count=%d, want 0/0", c.Len(), c.count.Load())
	}
}

func TestShadowSameEpochRestage(t *testing.T) {
	c := NewShadowCache(0)
	p1 := bytes.Repeat([]byte{1}, 24)
	p2 := bytes.Repeat([]byte{2}, 24)
	stage1(c, 4, 1, p1)
	stage1(c, 4, 1, p2) // retake under the same epoch: supersedes
	if e := c.entries[1]; len(e.pend) != 1 || !bytes.Equal(e.pend[0].buf, p2) {
		t.Fatalf("restage: pends=%d", len(c.entries[1].pend))
	}
	c.CommitEpoch(4, Incremental)
	if got := c.CommittedBase(1); !bytes.Equal(got, p2) {
		t.Fatalf("CommittedBase = %x, want %x", got, p2)
	}
}
