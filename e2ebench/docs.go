package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"ickpt/ckpt"
	"ickpt/ckpt/parfold"
	"ickpt/wire"
)

// docs: a document store, closed loop. Each document is a small metadata
// object plus a body blob of heavy-tailed size (1–64 KiB). Each epoch edits
// a Zipf-skewed few percent of the documents; most edits patch a few bytes
// in place, a minority rewrite the whole body. Large payloads make delta
// hashing and diffing, the parfold merge copy, write bandwidth and shadow
// memory dominate; the rewrites exercise the shadow cache's churn backoff.

const (
	docsCount         = 400
	docsEditsPerEpoch = 16
	docsZipfS         = 1.1
	docsRewriteShare  = 0.02
	// docsEpochsPerLog is how many epochs the store appends to one log
	// before it starts the next log with a Full anchor and deletes the old
	// one, which bounds recovery time and disk use.
	docsEpochsPerLog = 4000
	docMinSize       = 1 << 10
	docMaxSize       = 64 << 10
)

// docsPolicy groups commits by time, like interpPolicy: every 20 ms, about
// 70 epochs at this workload's rate, with 128 as the backstop.
var docsPolicy = flushPolicy{QueueLimit: 256, SyncEvery: 128, SyncInterval: 20 * time.Millisecond}

var (
	docMetaType = ckpt.TypeIDOf("e2ebench.docMeta")
	docBodyType = ckpt.TypeIDOf("e2ebench.docBody")
)

// docMeta is a document's metadata record; its body is its only child.
type docMeta struct {
	info    ckpt.Info
	version uint64
	body    *docBody
}

func (m *docMeta) CheckpointInfo() *ckpt.Info    { return &m.info }
func (m *docMeta) CheckpointTypeID() ckpt.TypeID { return docMetaType }
func (m *docMeta) Fold(w *ckpt.Writer) error     { return w.Checkpoint(m.body) }

func (m *docMeta) Record(e *wire.Encoder) {
	e.Uvarint(m.version)
	e.Uvarint(uint64(len(m.body.data)))
	e.Uvarint(m.body.info.ID())
}

func (m *docMeta) Restore(d *wire.Decoder, res *ckpt.Resolver) error {
	m.version = d.Uvarint()
	d.Uvarint()
	b, err := ckpt.ResolveAs[*docBody](res, d.Uvarint())
	if err != nil {
		return err
	}
	m.body = b
	return d.Err()
}

// docBody is a document's content.
type docBody struct {
	info ckpt.Info
	data []byte
}

func (b *docBody) CheckpointInfo() *ckpt.Info    { return &b.info }
func (b *docBody) CheckpointTypeID() ckpt.TypeID { return docBodyType }
func (b *docBody) Fold(*ckpt.Writer) error       { return nil }
func (b *docBody) Record(e *wire.Encoder)        { e.BytesField(b.data) }

func (b *docBody) Restore(d *wire.Decoder, _ *ckpt.Resolver) error {
	b.data = append([]byte(nil), d.BytesField()...)
	return d.Err()
}

func docRegistry() *ckpt.Registry {
	reg := ckpt.NewRegistry()
	reg.MustRegister("e2ebench.docMeta", func(id uint64) ckpt.Restorable { return &docMeta{info: ckpt.RestoredInfo(id)} })
	reg.MustRegister("e2ebench.docBody", func(id uint64) ckpt.Restorable { return &docBody{info: ckpt.RestoredInfo(id)} })
	return reg
}

// docStore is the seeded document population and its edit generator.
type docStore struct {
	domain *ckpt.Domain
	metas  []*docMeta
	roots  []ckpt.Checkpointable
	rng    *rand.Rand
	zipf   *rand.Zipf
}

// newDocStore builds n documents, the i-th most popular first. Body sizes
// are log-uniform from docMinSize to docMaxSize, spread over the popularity
// ranks by the golden-ratio sequence, so that popular documents come in all
// sizes and every seed edits the same mix of sizes; the seed decides the
// contents and the edit stream.
func newDocStore(n int, rng *rand.Rand) *docStore {
	s := &docStore{domain: ckpt.NewDomain(), rng: rng}
	s.zipf = rand.NewZipf(rng, docsZipfS, 1, uint64(n-1))
	for i := 0; i < n; i++ {
		u := math.Mod(float64(i)*math.Phi, 1)
		size := int(docMinSize * math.Pow(docMaxSize/docMinSize, u))
		m := &docMeta{info: ckpt.NewInfo(s.domain)}
		m.body = &docBody{info: ckpt.NewInfo(s.domain), data: make([]byte, size)}
		rng.Read(m.body.data)
		s.metas = append(s.metas, m)
		s.roots = append(s.roots, m)
	}
	return s
}

// edit applies one seeded edit and returns the edited document: usually an
// 8–64 byte in-place patch, sometimes a rewrite of the whole body.
func (s *docStore) edit() *docMeta {
	m := s.metas[s.zipf.Uint64()]
	data := m.body.data
	if s.rng.Float64() < docsRewriteShare {
		s.rng.Read(data)
	} else {
		n := 8 + s.rng.Intn(57)
		off := s.rng.Intn(len(data) - n + 1)
		s.rng.Read(data[off : off+n])
	}
	m.version++
	m.info.Mark()
	m.body.info.Mark()
	return m
}

type docsLoad struct {
	rng    *rand.Rand
	q      *logSeq
	sess   *ckpt.Session
	store  *docStore
	trk    *ckpt.Tracker
	cache  *ckpt.ShadowCache
	folder *parfold.Folder
	full   bool
	inLog  int
	reads  readStats
}

func newDocs(seed int64) *docsLoad {
	return &docsLoad{rng: rand.New(rand.NewSource(seed))}
}

func (l *docsLoad) policy() flushPolicy { return docsPolicy }

func (l *docsLoad) setup() error {
	l.store = newDocStore(docsCount, l.rng)
	l.trk = ckpt.NewTracker()
	l.store.domain.AttachTracker(l.trk)
	l.sess = ckpt.NewSession(ckpt.WithInfoResolver(l.trk.Resolve))
	l.cache = ckpt.NewShadowCache(deltaFloor)
	l.folder = parfold.NewGeneric(
		parfold.WithWorkers(runtime.GOMAXPROCS(0)),
		parfold.WithSession(l.sess),
		parfold.WithShadowCache(l.cache))
	q, err := newLogSeq("docs", docsPolicy, l.sess)
	if err != nil {
		return err
	}
	l.q = q
	_, err = l.reanchor()
	return err
}

// reanchor retires the current log, if any, and starts the next one with a
// Full anchor, waiting until the anchor is durable. It returns the bytes the
// new log took to get there.
func (l *docsLoad) reanchor() (int64, error) {
	if err := l.q.rotate(); err != nil {
		return 0, err
	}
	l.full, l.inLog = true, 0
	b0 := l.q.fs.st.written()
	if err := l.checkpoint(&epochRec{}, false); err != nil {
		return 0, err
	}
	if err := l.q.st.aw.Flush(); err != nil {
		return 0, err
	}
	return l.q.fs.st.written() - b0, nil
}

// checkpoint folds the dirty set on the worker pool (or, when the tracker or
// session demands it, the whole store) and appends the merged body.
func (l *docsLoad) checkpoint(rec *epochRec, traced bool) error {
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
	var (
		body  []byte
		stats ckpt.Stats
		err   error
	)
	if mode == ckpt.Full {
		body, stats, err = l.folder.Fold(ckpt.Full, l.store.roots)
	} else {
		body, stats, err = l.folder.FoldDirty(l.trk, ckpt.EmitObject)
	}
	if err != nil {
		return fmt.Errorf("docs fold: %w", err)
	}
	epoch := l.folder.Epoch()
	if traced {
		rec.foldEnd = time.Now()
		rec.allocs = mallocs() - a0
	}
	rec.epoch = epoch
	rec.records, rec.deltas, rec.bodyBytes = stats.Recorded, stats.Deltas, len(body)
	rec.pending = l.sess.Pending()
	l.q.st.begin(rec)
	if err := l.q.st.aw.Append(mode, epoch, body); err != nil {
		return fmt.Errorf("docs epoch %d: append: %w", epoch, err)
	}
	rec.handoffEnd = time.Now()
	l.inLog++
	if mode == ckpt.Full {
		if err := l.trk.Watch(l.store.roots...); err != nil {
			return fmt.Errorf("docs watch: %w", err)
		}
		l.full = false
	}
	return nil
}

func (l *docsLoad) counters() counters {
	return counters{async: l.q.async(), sess: l.sess.Stats(), shadow: l.cache.Stats()}
}

func (l *docsLoad) logs() *logSeq  { return l.q }
func (l *docsLoad) shadowLen() int { return l.cache.Len() }

// step applies docsEditsPerEpoch edits and checkpoints them. A full log is
// first replaced by a fresh, Full-anchored one; like any application work
// the rotation counts as mutator time, but its anchor's bytes are kept out
// of the per-epoch figures.
func (l *docsLoad) step(w *window, rec *epochRec, traced bool) (int, error) {
	if l.inLog >= docsEpochsPerLog {
		b, err := l.reanchor()
		if err != nil {
			return 0, err
		}
		w.anchorBytes += b
	}
	for i := 0; i < docsEditsPerEpoch; i++ {
		l.store.edit()
	}
	return docsEditsPerEpoch, l.checkpoint(rec, traced)
}

func (l *docsLoad) run(d time.Duration, tr *tracer) (report, int, int, error) {
	return runClosedLoop(l, d, tr)
}

// gate first fills the current log to docsEpochsPerLog epochs, untimed, so
// that every run restarts from a whole log, then restarts from it.
func (l *docsLoad) gate(r report, tr *tracer) error {
	for l.inLog < docsEpochsPerLog {
		for i := 0; i < docsEditsPerEpoch; i++ {
			l.store.edit()
		}
		if err := l.checkpoint(&epochRec{}, false); err != nil {
			return err
		}
	}
	if err := l.q.st.aw.Flush(); err != nil {
		return err
	}
	want, n, err := liveDigest(l.store.roots...)
	if err != nil {
		return err
	}
	if err := l.q.st.close(); err != nil {
		return err
	}
	if err := gateStream(l.q.st.path, docRegistry(), want, n, gateReps, l.rng, &l.reads); err != nil {
		return err
	}
	l.reads.report(r, tr)
	return nil
}

func (l *docsLoad) close() {
	l.q.close()
	if l.folder != nil {
		l.folder.Release()
	}
}
