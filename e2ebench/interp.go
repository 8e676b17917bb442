package main

import (
	"fmt"
	"math/rand"
	"time"

	"ickpt/ckpt"
	"ickpt/internal/interp"
)

// interp: seeded interpreter programs run back to back, closed loop, with an
// O(dirty) checkpoint after every interpFormsPerEpoch top-level forms. Epochs
// are tiny and frequent, so per-epoch fixed costs dominate: the tracker
// drain, body framing, the queue handoff, the group-commit fsync and the
// session bookkeeping. Nearly every record sits below the delta floor, so
// the shadow cache almost only takes its sub-floor bypass.

const (
	interpFormsPerEpoch = 96
	interpProgramForms  = 4000
	interpChurn         = 0.2
	// interpProgramsPerLog is how many programs share one log before it is
	// drained and deleted and a fresh one started, which bounds disk use
	// without paying a file's create, fsyncs and removal for every program.
	interpProgramsPerLog = 8
	// deltaFloor is the payload size above which records are shadowed and
	// may ship as deltas; interp and docs use the same floor.
	deltaFloor = 512
)

// interpPolicy groups commits by time: the writer fsyncs every 16 ms, which
// at this workload's thousand-odd epochs a second is about 20 epochs, so
// durable latency does not follow the mutator's speed, and the interval,
// not the device, makes up most of it: on a 2-CPU ext4 VM, a competing
// fsync-heavy writer on the same disk raised durable_p50_ms by a quarter at
// 16 ms against more than double at 5 ms. The group of 32 is a backstop that bounds the epochs in
// flight — with the clear-sets and buffers they pin — because the writer
// honours the interval only when its queue is empty. The queue holds one
// group, so a slow fsync turns into backpressure on the mutator.
var interpPolicy = flushPolicy{QueueLimit: 32, SyncEvery: 32, SyncInterval: 16 * time.Millisecond}

type interpLoad struct {
	seed  int64
	q     *logSeq
	sess  *ckpt.Session
	rng   *rand.Rand
	prog  int64
	m     *interp.Machine
	trk   *ckpt.Tracker
	wr    *ckpt.Writer
	epoch uint64
	full  bool // the current program still needs its Full anchor
	inLog int  // programs started in the current log
	// doneShadow sums the shadow counters of finished programs' writers.
	doneShadow ckpt.ShadowStats
	reads      readStats
}

func newInterp(seed int64) *interpLoad {
	return &interpLoad{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

func (l *interpLoad) policy() flushPolicy { return interpPolicy }

func (l *interpLoad) setup() error {
	l.sess = ckpt.NewSession()
	q, err := newLogSeq("interp", interpPolicy, l.sess)
	if err != nil {
		return err
	}
	l.q = q
	if err := l.newProgram(l.nextProgram()); err != nil {
		return err
	}
	if err := l.checkpoint(&epochRec{}, false); err != nil {
		return err
	}
	return l.q.st.aw.Flush()
}

// nextProgram returns the GenProgram seed of the next program the window
// runs.
func (l *interpLoad) nextProgram() int64 {
	l.prog++
	return l.seed*1000 + l.prog - 1
}

// newProgram starts the program GenProgram makes from progSeed on a fresh
// domain, in the current log unless that already holds interpProgramsPerLog
// programs. The first checkpoint is the Full anchor; the tracker starts
// watching after it.
func (l *interpLoad) newProgram(progSeed int64) error {
	if l.q.st == nil || l.inLog == interpProgramsPerLog {
		if err := l.q.rotate(); err != nil {
			return err
		}
		l.inLog = 0
	}
	if l.wr != nil {
		l.doneShadow = addShadow(l.doneShadow, l.wr.Shadow().Stats())
	}
	d := ckpt.NewDomain()
	m, err := interp.NewMachine(d, interp.GenProgram(progSeed, interpProgramForms, interpChurn), 0)
	if err != nil {
		return fmt.Errorf("interp program %d: %w", progSeed, err)
	}
	l.inLog++
	l.m = m
	l.trk = ckpt.NewTracker()
	d.AttachTracker(l.trk)
	l.wr = ckpt.NewWriter(ckpt.WithSession(l.sess), ckpt.WithDeltaEncoding(deltaFloor))
	l.full = true
	return nil
}

// checkpoint takes one epoch and hands it to the log, zero-copy.
func (l *interpLoad) checkpoint(rec *epochRec, traced bool) error {
	rec.start = time.Now()
	mode := ckpt.Full
	if !l.full {
		mode = l.sess.NextMode(l.trk.NextMode(ckpt.Incremental))
	}
	rec.mode = mode
	rec.dirty = l.trk.Dirty()
	var a0 uint64
	if traced {
		rec.modeEnd = time.Now()
		a0 = mallocs()
	}
	enc := l.q.st.aw.Reserve()
	l.wr.SwapEncoder(enc)
	l.epoch++
	l.wr.StartAt(mode, l.epoch)
	var err error
	if mode == ckpt.Full {
		err = l.wr.Checkpoint(l.m)
	} else {
		err = l.wr.CheckpointDirty(l.trk, nil)
	}
	body, stats, ferr := l.wr.Finish()
	if err == nil {
		err = ferr
	}
	if err != nil {
		l.q.st.aw.Recycle(enc)
		return fmt.Errorf("interp epoch %d: %w", l.epoch, err)
	}
	if traced {
		rec.foldEnd = time.Now()
		rec.allocs = mallocs() - a0
	}
	rec.epoch = l.epoch
	rec.records, rec.deltas, rec.bodyBytes = stats.Recorded, stats.Deltas, len(body)
	rec.pending = l.sess.Pending()
	l.q.st.begin(rec)
	if err := l.q.st.aw.Submit(mode, l.epoch, enc); err != nil {
		return fmt.Errorf("interp epoch %d: submit: %w", l.epoch, err)
	}
	rec.handoffEnd = time.Now()
	if mode == ckpt.Full {
		if err := l.trk.Watch(l.m); err != nil {
			return fmt.Errorf("interp watch: %w", err)
		}
		l.full = false
	}
	return nil
}

// counters sums the library counters over every program and log so far:
// each program has its own writer, each log its own AsyncWriter.
func (l *interpLoad) counters() counters {
	return counters{
		async:  l.q.async(),
		sess:   l.sess.Stats(),
		shadow: addShadow(l.doneShadow, l.wr.Shadow().Stats()),
	}
}

func (l *interpLoad) logs() *logSeq  { return l.q }
func (l *interpLoad) shadowLen() int { return l.wr.Shadow().Len() }

// step runs interpFormsPerEpoch forms and checkpoints them. When the
// program runs out, the next one starts on a fresh domain and anchors with
// a Full checkpoint.
func (l *interpLoad) step(_ *window, rec *epochRec, traced bool) (int, error) {
	forms := l.m.Run(interpFormsPerEpoch)
	if l.m.Done() {
		if err := l.newProgram(l.nextProgram()); err != nil {
			return 0, err
		}
	}
	return forms, l.checkpoint(rec, traced)
}

func (l *interpLoad) run(d time.Duration, tr *tracer) (report, int, int, error) {
	return runClosedLoop(l, d, tr)
}

// gateReruns is how many fresh programs the gate runs to their end, each in
// a log of its own, and restarts from gateReps/2 times each, so the restart
// timings cover whole logs of several programs rather than the tail of
// whichever program the window ended in.
const gateReruns = 10

// gate first runs the window's last program to its end and restarts once,
// untimed, from the window's log, which holds several programs and must
// rebuild the last. It then runs gateReruns fresh programs to their end and
// restarts from each one's log, timed. Every rebuilt machine is compared
// with the live one. The fresh programs have negative seeds of their own,
// so they are the same however many programs the window ran.
func (l *interpLoad) gate(r report, tr *tracer) error {
	if err := l.restartAtEnd(1, &readStats{}); err != nil {
		return err
	}
	for i := 0; i < gateReruns; i++ {
		l.inLog = interpProgramsPerLog // start the program in a fresh log
		if err := l.newProgram(-(l.seed*gateReruns + int64(i)) - 1); err != nil {
			return err
		}
		if err := l.restartAtEnd(gateReps/2, &l.reads); err != nil {
			return err
		}
	}
	l.reads.report(r, tr)
	return nil
}

// restartAtEnd runs the current program to its end, checkpointing as the
// window does, closes the log and passes it through gateStream.
func (l *interpLoad) restartAtEnd(reps int, rs *readStats) error {
	for !l.m.Done() {
		l.m.Run(interpFormsPerEpoch)
		if err := l.checkpoint(&epochRec{}, false); err != nil {
			return err
		}
	}
	want, n, err := liveDigest(l.m)
	if err != nil {
		return err
	}
	if err := l.q.st.close(); err != nil {
		return err
	}
	return gateStream(l.q.st.path, interp.NewRegistry(), want, n, reps, l.rng, rs)
}

func (l *interpLoad) close() { l.q.close() }
