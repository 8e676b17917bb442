package main

import (
	"encoding/binary"
	"os"
	"sync"
	"time"

	"ickpt/internal/faultfs"
)

// The device layer is measured from outside stablelog: the benchmark hands
// the log a timingFS through stablelog.WithFS, and every Write, WriteAt, Sync
// and SyncDir the log issues is counted and timed here. The log frames each
// segment as a fixed-size header write followed by a body write, so the
// header tells which epoch the following bytes belong to, and the first Sync
// that completes after them is the moment that epoch became durable.

// segHeaderSize and segMagic mirror stablelog's segment framing: a 29-byte
// header (magic, seq, epoch, mode, length, crc) starting with "SEGM".
const (
	segHeaderSize = 29
	segMagic      = 0x5345474d
)

// segTiming is the device-side history of one epoch's segment.
type segTiming struct {
	writeStart, writeEnd time.Time
	syncStart, syncEnd   time.Time
	bytes                int64
}

// fsStats accumulates the device-layer counters of one timingFS.
type fsStats struct {
	mu         sync.Mutex
	writes     int64
	writeBytes int64
	syncs      int64
	writeNs    []float64
	syncNs     []float64
	segs       map[uint64]*segTiming // nil: not kept
	unsynced   []*segTiming
	cur        *segTiming // segment whose header was the last write
}

// timingFS wraps the real filesystem and records every mutation the log
// makes through it.
type timingFS struct {
	inner faultfs.FS
	st    *fsStats
}

func newTimingFS() *timingFS {
	return &timingFS{inner: faultfs.OS{}, st: &fsStats{}}
}

func (t *timingFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := t.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, st: t.st}, nil
}

func (t *timingFS) Rename(oldpath, newpath string) error { return t.inner.Rename(oldpath, newpath) }
func (t *timingFS) Remove(name string) error             { return t.inner.Remove(name) }

func (t *timingFS) SyncDir(dir string) error {
	start := time.Now()
	err := t.inner.SyncDir(dir)
	t.st.sync(start, time.Now(), false)
	return err
}

// timingFile times the writes and syncs of one open file.
type timingFile struct {
	faultfs.File
	st *fsStats
}

func (f *timingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.st.write(p, start, time.Now())
	return n, err
}

func (f *timingFile) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.st.write(p, start, time.Now())
	return n, err
}

func (f *timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.st.sync(start, time.Now(), err == nil)
	return err
}

func (s *fsStats) write(p []byte, start, end time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	s.writeBytes += int64(len(p))
	s.writeNs = append(s.writeNs, float64(end.Sub(start)))
	if s.segs != nil && len(p) == segHeaderSize && binary.LittleEndian.Uint32(p) == segMagic {
		epoch := binary.LittleEndian.Uint64(p[12:])
		seg := &segTiming{writeStart: start}
		s.segs[epoch] = seg
		s.unsynced = append(s.unsynced, seg)
		s.cur = seg
	}
	if s.cur != nil {
		s.cur.writeEnd = end
		s.cur.bytes += int64(len(p))
	}
}

// sync records one fsync; a successful file sync makes every segment
// written since the previous one durable.
func (s *fsStats) sync(start, end time.Time, durable bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncs++
	s.syncNs = append(s.syncNs, float64(end.Sub(start)))
	if !durable {
		return
	}
	for _, seg := range s.unsynced {
		seg.syncStart, seg.syncEnd = start, end
	}
	s.unsynced = s.unsynced[:0]
	s.cur = nil
}

// seg returns a copy of epoch's device history, if its header was written.
func (s *fsStats) seg(epoch uint64) (segTiming, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seg, ok := s.segs[epoch]
	if !ok {
		return segTiming{}, false
	}
	return *seg, true
}

// written returns the bytes written so far in the window.
func (s *fsStats) written() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeBytes
}

// fsSnapshot is a consistent copy of the device counters.
type fsSnapshot struct {
	writes, writeBytes, syncs int64
	writeNs, syncNs           []float64
}

func (s *fsStats) snapshot() fsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fsSnapshot{
		writes: s.writes, writeBytes: s.writeBytes, syncs: s.syncs,
		writeNs: append([]float64(nil), s.writeNs...),
		syncNs:  append([]float64(nil), s.syncNs...),
	}
}

// reset drops the counters, so a measurement window starts from zero. With
// keepSegs, the window also keeps every segment's device history, which
// spans and per-request durability need, in a map sized for hint segments
// so that its growth does not step the heap; without, its memory stays flat.
func (s *fsStats) reset(keepSegs bool, hint int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes, s.writeBytes, s.syncs = 0, 0, 0
	s.writeNs, s.syncNs = s.writeNs[:0], s.syncNs[:0]
	s.segs, s.unsynced, s.cur = nil, nil, nil
	if keepSegs {
		s.segs = make(map[uint64]*segTiming, hint)
	}
}
