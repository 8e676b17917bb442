package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"ickpt/ckpt"
	"ickpt/stablelog"
)

// flushPolicy is a write workload's stated durability setting: the
// AsyncWriter queue bound plus its group-commit trigger.
type flushPolicy struct {
	QueueLimit   int           `json:"queue_limit"`
	SyncEvery    int           `json:"sync_every"`
	SyncInterval time.Duration `json:"sync_interval_ns"`
}

func (p flushPolicy) options() []stablelog.AsyncOption {
	opts := []stablelog.AsyncOption{stablelog.WithQueueLimit(p.QueueLimit)}
	if p.SyncEvery > 0 {
		opts = append(opts, stablelog.WithSyncEvery(p.SyncEvery))
	}
	if p.SyncInterval > 0 {
		opts = append(opts, stablelog.WithSyncInterval(p.SyncInterval))
	}
	return opts
}

// epochRec is what the benchmark observed about one checkpoint epoch. The
// traced-only stamps (mutStart, modeEnd, foldEnd) stay zero untraced.
type epochRec struct {
	epoch      uint64
	mode       ckpt.Mode
	mutStart   time.Time
	start      time.Time
	modeEnd    time.Time
	foldEnd    time.Time
	handoffEnd time.Time
	dirty      int
	records    int
	deltas     int
	bodyBytes  int
	allocs     uint64
	pending    int
	// ack is set by the log's acknowledgement goroutine: 0 while the epoch
	// is in flight, then the acknowledgement's time in nanoseconds since
	// clock0, negated when the epoch was not made durable.
	ack atomic.Int64
}

// clock0 is the origin of the acknowledgement stamps.
var clock0 = time.Now()

func (r *epochRec) pause() time.Duration { return r.handoffEnd.Sub(r.start) }

// resolved reports whether the epoch's acknowledgement has arrived, when,
// and whether it made the epoch durable.
func (r *epochRec) resolved() (at time.Time, durable, done bool) {
	v := r.ack.Load()
	switch {
	case v > 0:
		return clock0.Add(time.Duration(v)), true, true
	case v < 0:
		return clock0.Add(time.Duration(-v)), false, true
	}
	return time.Time{}, false, false
}

// stream is one checkpoint stream on disk: a log on the timing filesystem,
// a bounded AsyncWriter whose acknowledgements resolve a session, and the
// per-epoch records the acknowledgements complete.
type stream struct {
	path string
	fs   *timingFS
	log  *stablelog.Log
	aw   *stablelog.AsyncWriter
	sess *ckpt.Session

	mu     sync.Mutex
	recs   map[uint64]*epochRec // handed off, not yet acknowledged
	closed bool
}

// openStream creates a fresh log named name in dir, on fs.
func openStream(dir, name string, pol flushPolicy, sess *ckpt.Session, fs *timingFS) (*stream, error) {
	s := &stream{
		path: filepath.Join(dir, name),
		fs:   fs,
		sess: sess,
		recs: make(map[uint64]*epochRec),
	}
	lg, err := stablelog.Create(s.path, stablelog.WithFS(s.fs))
	if err != nil {
		return nil, fmt.Errorf("create log: %w", err)
	}
	s.log = lg
	s.aw = stablelog.NewAsyncWriter(lg, append(pol.options(), stablelog.WithAck(s.onAck))...)
	return s, nil
}

// begin registers r's epoch before its body is handed off, so that an
// acknowledgement arriving before the handoff returns finds its record.
func (s *stream) begin(r *epochRec) {
	s.mu.Lock()
	s.recs[r.epoch] = r
	s.mu.Unlock()
}

func (s *stream) onAck(epoch uint64, err error) {
	at := int64(time.Since(clock0)) + 1 // never 0, which means in flight
	if err != nil {
		at = -at
	}
	s.mu.Lock()
	r := s.recs[epoch]
	delete(s.recs, epoch)
	s.mu.Unlock()
	if r != nil {
		r.ack.Store(at)
	}
	s.sess.Ack(epoch, err)
}

// close drains the writer (final group commit included) and closes the log.
func (s *stream) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	werr := s.aw.Close()
	lerr := s.log.Close()
	if werr != nil {
		return fmt.Errorf("close async writer: %w", werr)
	}
	if lerr != nil {
		return fmt.Errorf("close log: %w", lerr)
	}
	return nil
}

// retire closes the stream and deletes its log, returning the writer's
// final acknowledgement counters.
func (s *stream) retire() (stablelog.AsyncStats, error) {
	if err := s.close(); err != nil {
		return stablelog.AsyncStats{}, err
	}
	return s.aw.Stats(), os.Remove(s.path)
}

// logSeq is a workload's succession of logs in one directory: rotate
// retires the current stream, draining and deleting its log, and opens the
// next, which bounds disk use and recovery time. Every log shares one
// session and one timing filesystem.
type logSeq struct {
	dir, prefix string
	pol         flushPolicy
	sess        *ckpt.Session
	fs          *timingFS
	st          *stream
	logs        int
	// done sums the acknowledgement counters of retired logs.
	done stablelog.AsyncStats
}

func newLogSeq(prefix string, pol flushPolicy, sess *ckpt.Session) (*logSeq, error) {
	dir, err := tempDir(prefix)
	if err != nil {
		return nil, err
	}
	return &logSeq{dir: dir, prefix: prefix, pol: pol, sess: sess, fs: newTimingFS()}, nil
}

// rotate retires the current stream, if any, and opens the next one.
func (q *logSeq) rotate() error {
	if q.st != nil {
		a, err := q.st.retire()
		if err != nil {
			return err
		}
		q.done = addAsync(q.done, a)
	}
	st, err := openStream(q.dir, fmt.Sprintf("%s-%d.log", q.prefix, q.logs), q.pol, q.sess, q.fs)
	if err != nil {
		return err
	}
	q.logs++
	q.st = st
	return nil
}

// async sums the acknowledgement counters of every log so far.
func (q *logSeq) async() stablelog.AsyncStats {
	if q.st == nil {
		return q.done
	}
	return addAsync(q.done, q.st.aw.Stats())
}

// close closes the current stream and deletes the directory.
func (q *logSeq) close() {
	if q == nil {
		return
	}
	if q.st != nil {
		q.st.close()
	}
	os.RemoveAll(q.dir)
}

// benchDir is where the benchmark keeps everything it writes: its build
// output, the temporary logs and the trace files, all inside the checkout.
const benchDir = ".bench_build"

// tempDir makes a fresh directory for one workload's logs.
func tempDir(prefix string) (string, error) {
	root := filepath.Join(benchDir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}

// mallocs returns the process's cumulative heap allocation count, read
// through runtime/metrics so that tracing does not stop the world.
func mallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
