package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ickpt/ckpt"
	"ickpt/stablelog"
	"ickpt/wire"
)

// restart: the read side. Setup writes a docs-style history with a Full
// anchor every restartFullEvery epochs and applies Binomial retention.
// Operations then alternate between a restart — Open, Recover and Build of
// the head, after which the resumed application re-anchors with a Full
// checkpoint into its own log — and a RewindTo a seeded retained epoch.
// Every rebuilt state is checked against the digest recorded for its epoch
// at setup. Reads come from the OS page cache, since setup has just written
// the log.

const (
	restartDocs      = 100
	restartHistory   = 240
	restartFullEvery = 40
	// restartResumesPerLog is how many resume anchors share one resume log.
	restartResumesPerLog = 16
)

// restartPolicy is the resumed application's flush policy: its anchor is
// synced on its own.
var restartPolicy = flushPolicy{QueueLimit: 4, SyncEvery: 1}

var restartRetention = stablelog.Binomial{Window: 8, Tail: 2}

type restartLoad struct {
	rng      *rand.Rand
	dir      string
	path     string
	reg      *ckpt.Registry
	lg       *stablelog.Log
	retained []uint64
	digests  map[uint64]uint64
	objects  map[uint64]int
	head     uint64
	resumes  uint64
	// The resumed application's checkpoint stack, shared by every resume.
	sess *ckpt.Session
	wr   *ckpt.Writer
	q    *logSeq
}

func newRestart(seed int64) *restartLoad {
	sess := ckpt.NewSession()
	return &restartLoad{
		rng: rand.New(rand.NewSource(seed)), reg: docRegistry(),
		sess: sess, wr: ckpt.NewWriter(ckpt.WithSession(sess)),
	}
}

func (l *restartLoad) policy() flushPolicy { return restartPolicy }

// setup writes the history synchronously, recording every epoch's state
// digest (kept up to date one edited document at a time), then retains it.
func (l *restartLoad) setup() error {
	dir, err := tempDir("restart")
	if err != nil {
		return err
	}
	l.dir = dir
	l.path = filepath.Join(dir, "history.log")
	if l.q, err = newLogSeq("resume", restartPolicy, l.sess); err != nil {
		return err
	}
	store := newDocStore(restartDocs, l.rng)
	lg, err := stablelog.Create(l.path)
	if err != nil {
		return err
	}
	sess := ckpt.NewSession()
	wr := ckpt.NewWriter(ckpt.WithSession(sess), ckpt.WithDeltaEncoding(deltaFloor))

	var enc wire.Encoder
	hashes := make(map[uint64]uint64)
	var digest uint64
	rehash := func(o ckpt.Checkpointable) {
		id := o.CheckpointInfo().ID()
		digest -= hashes[id]
		hashes[id] = objDigest(&enc, id, o)
		digest += hashes[id]
	}
	for _, m := range store.metas {
		rehash(m)
		rehash(m.body)
	}
	l.digests = make(map[uint64]uint64)
	l.objects = make(map[uint64]int)
	for e := 0; e < restartHistory; e++ {
		if e > 0 {
			for i := 0; i < docsEditsPerEpoch; i++ {
				m := store.edit()
				rehash(m)
				rehash(m.body)
			}
		}
		mode := ckpt.Incremental
		if e%restartFullEvery == 0 {
			mode = ckpt.Full
		}
		wr.Start(mode)
		for _, r := range store.roots {
			if err := wr.Checkpoint(r); err != nil {
				lg.Close()
				return err
			}
		}
		body, _, err := wr.Finish()
		if err != nil {
			lg.Close()
			return err
		}
		if _, err := lg.Append(mode, wr.Epoch(), body); err != nil {
			lg.Close()
			return err
		}
		sess.Commit(wr.Epoch())
		l.digests[wr.Epoch()] = digest
		l.objects[wr.Epoch()] = len(hashes)
	}
	if err := lg.Retain(restartRetention); err != nil {
		lg.Close()
		return fmt.Errorf("retain: %w", err)
	}
	idx, err := lg.EpochIndex()
	if err != nil {
		lg.Close()
		return err
	}
	l.retained = idx.Epochs()
	l.head, _ = idx.Latest()
	l.lg = lg
	return lg.Sync()
}

// check compares a rebuilt state with the digest recorded for epoch; a
// mismatch fails the correctness gate.
func (l *restartLoad) check(epoch uint64, objs map[uint64]ckpt.Restorable) error {
	if got := builtDigest(objs); got != l.digests[epoch] || len(objs) != l.objects[epoch] {
		return fmt.Errorf("%w: restart: state rebuilt at epoch %d differs from the state recorded at setup (%d objects, want %d)",
			errGate, epoch, len(objs), l.objects[epoch])
	}
	return nil
}

// resume is the restarted application's first checkpoint: a Full anchor of
// the rebuilt documents, handed off zero-copy to the resume log and waited
// on until durable. The resume log is replaced by a fresh one every
// restartResumesPerLog anchors, so it stays small.
func (l *restartLoad) resume(objs map[uint64]ckpt.Restorable, traced bool) (*epochRec, error) {
	var roots []ckpt.Checkpointable
	for _, o := range objs {
		if o.CheckpointTypeID() == docMetaType {
			roots = append(roots, o)
		}
	}
	ckpt.SortRoots(roots)
	if l.resumes%restartResumesPerLog == 0 {
		if err := l.q.rotate(); err != nil {
			return nil, err
		}
	}
	l.resumes++
	epoch := l.resumes
	rec := &epochRec{epoch: epoch, mode: ckpt.Full, start: time.Now()}
	var a0 uint64
	if traced {
		rec.modeEnd = rec.start
		a0 = mallocs()
	}
	enc := l.q.st.aw.Reserve()
	l.wr.SwapEncoder(enc)
	l.wr.StartAt(ckpt.Full, epoch)
	for _, r := range roots {
		if err := l.wr.Checkpoint(r); err != nil {
			l.wr.Finish()
			l.q.st.aw.Recycle(enc)
			return nil, err
		}
	}
	body, stats, err := l.wr.Finish()
	if err != nil {
		l.q.st.aw.Recycle(enc)
		return nil, err
	}
	if traced {
		rec.foldEnd = time.Now()
		rec.allocs = mallocs() - a0
	}
	rec.records, rec.bodyBytes, rec.pending = stats.Recorded, len(body), l.sess.Pending()
	l.q.st.begin(rec)
	if err := l.q.st.aw.Submit(ckpt.Full, epoch, enc); err != nil {
		return nil, err
	}
	rec.handoffEnd = time.Now()
	if err := l.q.st.aw.Flush(); err != nil {
		return nil, err
	}
	return rec, nil
}

func (l *restartLoad) counters() counters {
	return counters{async: l.q.async(), sess: l.sess.Stats()}
}

func (l *restartLoad) run(d time.Duration, tr *tracer) (report, int, int, error) {
	traced := tr != nil
	l.q.fs.st.reset(traced, 0)
	w := newWindow(l.counters(), traced)
	var reads readStats
	deadline := w.start.Add(d)
	for time.Now().Before(deadline) {
		if w.ops%2 == 0 {
			t, objs, err := recoverHead(l.path, l.reg)
			if err != nil {
				return nil, 0, 0, err
			}
			if err := l.check(l.head, objs); err != nil {
				return nil, 0, 0, err
			}
			reads.recovers = append(reads.recovers, t)
			rec, err := l.resume(objs, traced)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("resume: %w", err)
			}
			w.add(rec)
			w.op(1)
			continue
		}
		epoch := l.retained[l.rng.Intn(len(l.retained))]
		t, objs, err := rewind(l.lg, l.reg, epoch)
		if err != nil {
			return nil, 0, 0, err
		}
		if err := l.check(epoch, objs); err != nil {
			return nil, 0, 0, err
		}
		reads.rewinds = append(reads.rewinds, t)
		w.op(1)
	}
	w.elapsed = time.Since(w.start)
	w.after = l.counters()
	r := report{}
	failed := writeReport(r, l.q.fs, w, tr)
	reads.report(r, tr)
	return r, w.ops, failed, nil
}

// gate: every operation of run already checked its rebuilt state.
func (l *restartLoad) gate(report, *tracer) error { return nil }

func (l *restartLoad) close() {
	l.q.close()
	if l.lg != nil {
		l.lg.Close()
	}
	os.RemoveAll(l.dir)
}
