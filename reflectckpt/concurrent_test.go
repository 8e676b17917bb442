package reflectckpt_test

import (
	"bytes"
	"runtime"
	"testing"

	"ickpt/ckpt"
	"ickpt/ckpt/parfold"
	"ickpt/reflectckpt"
)

// TestSharedEngineParallelFoldDirty: one Engine's EmitOne shared by every
// worker of a parallel dirty fold. Each round starts from a fresh engine, so
// the workers race on schema-cache misses and hits; under -race this is the
// regression test for the engine's concurrency safety. The merged body must
// match a sequential dirty checkpoint of a twin population.
func TestSharedEngineParallelFoldDirty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const nodes, rounds = 64, 4

	build := func() ([]*node, *ckpt.Tracker) {
		d := ckpt.NewDomain()
		ns := make([]*node, nodes)
		roots := make([]ckpt.Checkpointable, nodes)
		for i := range ns {
			ns[i] = buildNode(d, 3)
			roots[i] = ns[i]
		}
		tr := ckpt.NewTracker()
		d.AttachTracker(tr)
		if err := tr.Watch(roots...); err != nil {
			t.Fatal(err)
		}
		return ns, tr
	}
	touch := func(ns []*node, round int) {
		for i, n := range ns {
			n.I += int64(round)
			n.Info.Mark()
			if i%2 == 0 {
				n.Head.Val++
				n.Head.Info.Mark()
			}
		}
	}

	pa, tra := build()
	pb, trb := build()
	folder := parfold.NewGeneric(parfold.WithWorkers(4), parfold.WithShards(16))
	wr := ckpt.NewWriter()
	for round := 1; round <= rounds; round++ {
		touch(pa, round)
		touch(pb, round)
		got, _, err := folder.FoldDirty(tra, reflectckpt.NewEngine().EmitOne)
		if err != nil {
			t.Fatalf("round %d: parallel fold: %v", round, err)
		}
		wr.Start(ckpt.Incremental)
		if err := wr.CheckpointDirty(trb, reflectckpt.NewEngine().EmitOne); err != nil {
			t.Fatalf("round %d: sequential fold: %v", round, err)
		}
		want, _, err := wr.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: parallel body differs from sequential (%d vs %d bytes)", round, len(got), len(want))
		}
	}
}
