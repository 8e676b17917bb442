package main

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/rand"
	"runtime"
	"time"

	"ickpt/ckpt"
	"ickpt/stablelog"
	"ickpt/wire"
)

// State digests. A state's digest is the sum, over its objects, of a hash of
// (id, type, recorded payload) — the canonical dump of the live graph folded
// into one order-independent number, so it can be updated one object at a
// time and compared between a live graph and a rebuilt one.

var digestSeed = maphash.MakeSeed()

func objDigest(e *wire.Encoder, id uint64, o ckpt.Checkpointable) uint64 {
	e.Reset()
	o.Record(e)
	var h maphash.Hash
	h.SetSeed(digestSeed)
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[:], id)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(o.CheckpointTypeID()))
	h.Write(hdr[:])
	h.Write(e.Bytes())
	return h.Sum64()
}

// liveDigest digests every object reachable from roots without touching a
// modified flag.
func liveDigest(roots ...ckpt.Checkpointable) (uint64, int, error) {
	idx, err := ckpt.IndexRoots(roots...)
	if err != nil {
		return 0, 0, err
	}
	var e wire.Encoder
	var sum uint64
	idx.Each(func(id uint64, o ckpt.Checkpointable) { sum += objDigest(&e, id, o) })
	return sum, idx.Len(), nil
}

// builtDigest digests a rebuilt object set.
func builtDigest(objs map[uint64]ckpt.Restorable) uint64 {
	var e wire.Encoder
	var sum uint64
	for id, o := range objs {
		sum += objDigest(&e, id, o)
	}
	return sum
}

// readTiming is one restart or rewind, split by the library call that spent
// the time.
type readTiming struct {
	start                          time.Time
	openEnd, runEnd, recEnd, built time.Time
	objects                        int
	segments                       int
	bytes                          int64
}

func (t readTiming) total() time.Duration { return t.built.Sub(t.start) }

// recoverHead restarts from the bytes on disk: Open, the recovery-run scan,
// Recover and Build, each stamped.
func recoverHead(path string, reg *ckpt.Registry) (readTiming, map[uint64]ckpt.Restorable, error) {
	return recoverWith(path, reg, (*stablelog.Log).RecoveryRun, (*stablelog.Log).Recover)
}

// recoverWith is recoverHead with the scan and the replay given: the
// multi-tenant log filters both by tenant.
func recoverWith(path string, reg *ckpt.Registry,
	scan func(*stablelog.Log) ([]stablelog.SegmentInfo, error),
	replay func(*stablelog.Log, *ckpt.Rebuilder) error,
) (readTiming, map[uint64]ckpt.Restorable, error) {
	var t readTiming
	t.start = time.Now()
	lg, err := stablelog.Open(path)
	if err != nil {
		return t, nil, fmt.Errorf("open %s: %w", path, err)
	}
	defer lg.Close()
	t.openEnd = time.Now()
	run, err := scan(lg)
	if err != nil {
		return t, nil, fmt.Errorf("recovery run: %w", err)
	}
	t.runEnd = time.Now()
	rb := ckpt.NewRebuilder(reg)
	if err := replay(lg, rb); err != nil {
		return t, nil, fmt.Errorf("recover: %w", err)
	}
	t.recEnd = time.Now()
	objs, err := rb.Build(ckpt.NewDomain())
	if err != nil {
		return t, nil, fmt.Errorf("build: %w", err)
	}
	t.built = time.Now()
	t.objects = len(objs)
	t.segments = len(run)
	for _, s := range run {
		t.bytes += int64(s.Length)
	}
	return t, objs, nil
}

// rewind replays the retained chain ending at epoch into a fresh rebuilder
// and builds it.
func rewind(lg *stablelog.Log, reg *ckpt.Registry, epoch uint64) (readTiming, map[uint64]ckpt.Restorable, error) {
	var t readTiming
	t.start = time.Now()
	rb := ckpt.NewRebuilder(reg)
	rs, err := lg.RewindTo(rb, epoch)
	if err != nil {
		return t, nil, fmt.Errorf("rewind to %d: %w", epoch, err)
	}
	t.recEnd = time.Now()
	objs, err := rb.Build(ckpt.NewDomain())
	if err != nil {
		return t, nil, fmt.Errorf("build at %d: %w", epoch, err)
	}
	t.built = time.Now()
	t.objects = len(objs)
	t.segments = rs.Segments
	t.bytes = rs.Bytes
	return t, objs, nil
}

// readStats accumulates restart and rewind timings into the read-side
// metrics.
type readStats struct {
	recovers, rewinds []readTiming
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (s *readStats) report(r report, tr *tracer) {
	var total, open, scan, rec, build, objs []float64
	for i, t := range s.recovers {
		total = append(total, ms(t.total()))
		open = append(open, ms(t.openEnd.Sub(t.start)))
		scan = append(scan, ms(t.runEnd.Sub(t.openEnd)))
		rec = append(rec, ms(t.recEnd.Sub(t.runEnd)))
		build = append(build, ms(t.built.Sub(t.recEnd)))
		objs = append(objs, float64(t.objects))
		root := tr.add("restart", uint64(i), -1, t.start, t.built)
		tr.add("log.open", uint64(i), root, t.start, t.openEnd)
		tr.add("log.recovery_run", uint64(i), root, t.openEnd, t.runEnd)
		tr.add("log.recover", uint64(i), root, t.runEnd, t.recEnd)
		tr.add("rebuilder.build", uint64(i), root, t.recEnd, t.built)
	}
	n := len(s.recovers)
	r.set("recover_p50_ms", quantile(total, 0.5), "ms", n)
	r.set("recover_p90_ms", quantile(total, 0.9), "ms", n)
	r.set("log.open_ms", quantile(open, 0.5), "ms", n)
	r.set("log.recovery_run_ms", quantile(scan, 0.5), "ms", n)
	r.set("log.recover_ms", quantile(rec, 0.5), "ms", n)
	r.set("rebuilder.build_ms", quantile(build, 0.5), "ms", n)
	r.set("rebuilder.objects", mean(objs), "count", n)

	var rw, segs, bytes []float64
	for i, t := range s.rewinds {
		rw = append(rw, ms(t.total()))
		segs = append(segs, float64(t.segments))
		bytes = append(bytes, float64(t.bytes))
		root := tr.add("rewind", uint64(i), -1, t.start, t.built)
		tr.add("log.rewind", uint64(i), root, t.start, t.recEnd)
		tr.add("rebuilder.build", uint64(i), root, t.recEnd, t.built)
	}
	n = len(s.rewinds)
	r.set("rewind_p50_ms", quantile(rw, 0.5), "ms", n)
	r.set("rewind_p90_ms", quantile(rw, 0.9), "ms", n)
	r.set("rewind.segments", mean(segs), "count", n)
	r.set("rewind.bytes", mean(bytes), "B", n)
}

// gateReps is how many restarts (and rewinds) the end-of-run gate of a
// write workload times.
const gateReps = 20

// gateStream is the correctness gate of a single-stream write workload:
// restart from the closed log reps times, compare every rebuilt state with
// the live one, and time reps seeded rewinds into the retained history.
// The timed reads start right after a garbage collection: a restarted
// process begins with a fresh heap, not midway through a collection cycle
// of the workload that just ran.
func gateStream(path string, reg *ckpt.Registry, want uint64, wantN, reps int, rng *rand.Rand, rs *readStats) error {
	runtime.GC()
	for i := 0; i < reps; i++ {
		t, objs, err := recoverHead(path, reg)
		if err != nil {
			return err
		}
		if got := builtDigest(objs); got != want || len(objs) != wantN {
			return fmt.Errorf("gate: recovered state differs from live state (%d objects, digest %x; live %d objects, digest %x)",
				len(objs), got, wantN, want)
		}
		rs.recovers = append(rs.recovers, t)
	}
	lg, err := stablelog.Open(path)
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	defer lg.Close()
	idx, err := lg.EpochIndex()
	if err != nil {
		return fmt.Errorf("epoch index: %w", err)
	}
	epochs := idx.Epochs()
	for i := 0; i < reps; i++ {
		t, _, err := rewind(lg, reg, epochs[rng.Intn(len(epochs))])
		if err != nil {
			return err
		}
		rs.rewinds = append(rs.rewinds, t)
	}
	return nil
}
