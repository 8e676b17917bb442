package main

import (
	"fmt"
	"time"

	"ickpt/ckpt"
	"ickpt/stablelog"
)

// shareTolerance is how far the per-layer shares of pause and durable
// latency may sum away from the measured whole before the traced run says
// the attribution is inconsistent.
const shareTolerance = 0.05

// counters are the library's own cumulative counters, read at both ends of
// a measurement window.
type counters struct {
	async  stablelog.AsyncStats
	sess   ckpt.SessionStats
	shadow ckpt.ShadowStats
}

// subWindows is how many parts a measurement window is split into: equal
// stretches of time for the median latencies, equal runs of completed
// operations for throughput. Each is taken per part and reported as the
// median over the parts, so a burst of interference from outside the
// process moves one part, not the result.
const subWindows = 10

// window is one measurement window of a single-stream write workload.
//
// Only a traced run keeps every epoch's whole record (for spans and layer
// timings). An untraced run folds each epoch into running totals and, once
// acknowledged, a compact sample, so the benchmark's own memory — which
// heap_peak_mb and the collector's work would otherwise count — does not
// grow with the epoch rate.
type window struct {
	start     time.Time
	elapsed   time.Duration
	traced    bool
	ops       int
	done      []opMark
	inFlight  []*epochRec   // handed off, acknowledgement not yet collected
	samples   []epochSample // collected epochs, in hand-off order
	recs      []*epochRec   // every epoch, traced runs only
	totals    epochTotals
	before    counters
	after     counters
	shadowLen int
	// anchorBytes are the bytes of log-rotation anchors written in the
	// window. They are application work, like the rotation itself, and stay
	// out of log_bytes_per_epoch, so that the figure does not depend on
	// whether the window's throughput reached a rotation.
	anchorBytes int64
}

// opMark records n application operations completed at an offset into the
// window.
type opMark struct {
	at time.Duration
	n  int
}

// epochSample is what an untraced run keeps of one epoch: when it started,
// its pause, and its durable latency (negative when it was not durably
// acknowledged).
type epochSample struct {
	at, pause, durable time.Duration
}

// epochTotals sums the per-epoch counts over a window.
type epochTotals struct {
	dirty, records, deltas, bodyBytes, allocs float64
	full, pendingMax                          int
}

func newWindow(before counters, traced bool) *window {
	return &window{start: time.Now(), before: before, traced: traced}
}

// op records n operations completed now.
func (w *window) op(n int) {
	w.ops += n
	w.done = append(w.done, opMark{time.Since(w.start), n})
}

// add records an epoch whose body has been handed off, and collects the
// acknowledgements that have arrived since the last call.
func (w *window) add(rec *epochRec) {
	t := &w.totals
	t.dirty += float64(rec.dirty)
	t.records += float64(rec.records)
	t.deltas += float64(rec.deltas)
	t.bodyBytes += float64(rec.bodyBytes)
	t.allocs += float64(rec.allocs)
	if rec.mode == ckpt.Full {
		t.full++
	}
	t.pendingMax = max(t.pendingMax, rec.pending)
	w.inFlight = append(w.inFlight, rec)
	if w.traced {
		w.recs = append(w.recs, rec)
	}
	w.collect(false)
}

// collect turns the acknowledged epochs at the head of inFlight into
// samples. Acknowledgements of one stream arrive in hand-off order. With
// final set, every epoch is collected and one still unacknowledged counts
// as not durable.
func (w *window) collect(final bool) {
	i := 0
	for ; i < len(w.inFlight); i++ {
		rec := w.inFlight[i]
		at, durable, done := rec.resolved()
		if !done && !final {
			break
		}
		s := epochSample{at: rec.start.Sub(w.start), pause: rec.pause(), durable: -1}
		if durable {
			s.durable = at.Sub(rec.start)
		}
		w.samples = append(w.samples, s)
	}
	clear(w.inFlight[:i])
	w.inFlight = w.inFlight[i:]
}

// part returns the sub-window an offset into the window falls in.
func (w *window) part(at time.Duration) int {
	i := int(float64(at) * subWindows / float64(w.elapsed))
	return min(max(i, 0), subWindows-1)
}

// rate is the median of the operation rates of subWindows runs of
// consecutive completions (fewer when fewer completed): each run's
// operations divided by the time from the previous run's last completion to
// its own. Runs split by count rather than by clock never come up empty, so
// a slow run reads low instead of 0.
func (w *window) rate() float64 {
	parts := min(subWindows, len(w.done))
	var rates []float64
	var from time.Duration
	lo := 0
	for p := 1; p <= parts; p++ {
		hi := p * len(w.done) / parts
		n := 0
		for _, d := range w.done[lo:hi] {
			n += d.n
		}
		to := w.done[hi-1].at
		rates = append(rates, float64(n)/(to-from).Seconds())
		from, lo = to, hi
	}
	return quantile(rates, 0.5)
}

// partMedian is the median over non-empty sub-windows of each one's median.
func partMedian(parts [subWindows][]float64) float64 {
	var meds []float64
	for _, p := range parts {
		if len(p) > 0 {
			meds = append(meds, quantile(p, 0.5))
		}
	}
	return quantile(meds, 0.5)
}

// closedLoad is a single-stream write workload driven closed loop: each
// step is one epoch of application work followed by its checkpoint.
type closedLoad interface {
	// step runs one epoch, filling rec, and returns the application
	// operations it completed.
	step(w *window, rec *epochRec, traced bool) (int, error)
	logs() *logSeq
	counters() counters
	shadowLen() int
}

// runClosedLoop steps l for d, then waits for every handed-off epoch's
// acknowledgement and reports the window.
func runClosedLoop(l closedLoad, d time.Duration, tr *tracer) (report, int, int, error) {
	traced := tr != nil
	q := l.logs()
	q.fs.st.reset(traced, 0)
	w := newWindow(l.counters(), traced)
	deadline := w.start.Add(d)
	for time.Now().Before(deadline) {
		rec := &epochRec{}
		if traced {
			rec.mutStart = time.Now()
		}
		ops, err := l.step(w, rec, traced)
		if err != nil {
			return nil, 0, 0, err
		}
		w.op(ops)
		w.add(rec)
	}
	w.elapsed = time.Since(w.start)
	if err := q.st.aw.Flush(); err != nil {
		return nil, 0, 0, fmt.Errorf("flush: %w", err)
	}
	w.after = l.counters()
	w.shadowLen = l.shadowLen()
	r := report{}
	failed := writeReport(r, q.fs, w, tr)
	return r, len(w.samples), failed, nil
}

// writeReport turns a window's epochs and counters into the write path's
// end-to-end and per-layer metrics — and, when traced, into spans — and
// returns the number of epochs not durably acknowledged.
func writeReport(r report, fs *timingFS, w *window, tr *tracer) int {
	w.collect(true)
	n := len(w.samples)
	var pause, durable, durA, durB []float64
	var pauseParts, durableParts [subWindows][]float64
	failed := 0
	for i, s := range w.samples {
		p := float64(s.pause) / 1e3
		part := w.part(s.at)
		pause = append(pause, p)
		pauseParts[part] = append(pauseParts[part], p)
		if s.durable < 0 {
			failed++
			continue
		}
		d := ms(s.durable)
		durable = append(durable, d)
		durableParts[part] = append(durableParts[part], d)
		if i < n/2 {
			durA = append(durA, d)
		} else {
			durB = append(durB, d)
		}
	}
	// Layer timings come from the whole records only a traced run keeps.
	var handoff, ackWait, fold []float64
	var mutNs, foldNs, pauseNs, durableNs float64
	for _, rec := range w.recs {
		if !rec.mutStart.IsZero() {
			mutNs += float64(rec.start.Sub(rec.mutStart))
		}
		if !rec.foldEnd.IsZero() {
			f := float64(rec.foldEnd.Sub(rec.modeEnd))
			fold = append(fold, f)
			foldNs += f
			handoff = append(handoff, float64(rec.handoffEnd.Sub(rec.foldEnd)))
		}
		if at, ok, _ := rec.resolved(); ok {
			ackWait = append(ackWait, ms(at.Sub(rec.handoffEnd)))
			pauseNs += float64(rec.pause())
			durableNs += float64(at.Sub(rec.start))
			traceEpoch(tr, rec, at, fs)
		}
	}
	fn := float64(n)
	t := w.totals
	dev := fs.st.snapshot()
	r.set("app_ops_per_s", w.rate(), "1/s", w.ops)
	r.set("pause_p50_us", partMedian(pauseParts), "us", n)
	r.set("pause_p99_us", quantile(pause, 0.99), "us", n)
	r.set("durable_p50_ms", partMedian(durableParts), "ms", len(durable))
	r.set("durable_p99_ms", quantile(durable, 0.99), "ms", len(durable))
	r.set("durable.half_ratio", ratio(quantile(durB, 0.5), quantile(durA, 0.5)), "ratio", len(durB))
	r.set("log_bytes_per_epoch", ratio(float64(dev.writeBytes-w.anchorBytes), fn), "B", n)
	r.set("failed_share", ratio(float64(failed), fn), "ratio", n)
	r.set("mutator.ns_per_op", ratio(mutNs, float64(w.ops)), "ns", w.ops)
	r.set("tracker.dirty_per_epoch", ratio(t.dirty, fn), "count", n)
	r.set("tracker.full_share", ratio(float64(t.full), fn), "ratio", n)
	r.set("fold.ns_p50", quantile(fold, 0.5), "ns", len(fold))
	r.set("fold.ns_p99", quantile(fold, 0.99), "ns", len(fold))
	r.set("fold.records_per_epoch", ratio(t.records, fn), "count", n)
	r.set("fold.ns_per_record", ratio(foldNs, t.records), "ns", int(t.records))
	r.set("fold.body_bytes_per_epoch", ratio(t.bodyBytes, fn), "B", n)
	r.set("fold.allocs_per_epoch", ratio(t.allocs, float64(len(fold))), "count", len(fold))

	sh0, sh1 := w.before.shadow, w.after.shadow
	wins := float64(sh1.Wins - sh0.Wins)
	attempts := wins + float64(sh1.Losses-sh0.Losses)
	skips := float64(sh1.SkippedEmits - sh0.SkippedEmits)
	r.set("shadow.win_share", ratio(wins, attempts), "ratio", int(attempts))
	r.set("shadow.skip_share", ratio(skips, attempts+skips), "ratio", int(attempts+skips))
	r.set("shadow.delta_record_share", ratio(t.deltas, t.records), "ratio", int(t.records))
	r.set("shadow.entries", float64(w.shadowLen), "count", 1)

	a0, a1 := w.before.async, w.after.async
	r.set("async.handoff_ns_p50", quantile(handoff, 0.5), "ns", len(handoff))
	r.set("async.handoff_ns_p99", quantile(handoff, 0.99), "ns", len(handoff))
	r.set("async.ack_wait_ms_p50", quantile(ackWait, 0.5), "ms", len(ackWait))
	r.set("async.acked", float64(a1.Acked-a0.Acked), "count", 1)
	r.set("async.dropped", float64(a1.Dropped-a0.Dropped), "count", 1)
	r.set("async.retried", float64(a1.Retried-a0.Retried), "count", 1)

	fsReport(r, dev, n)

	s0, s1 := w.before.sess, w.after.sess
	r.set("session.commits", float64(s1.Commits-s0.Commits), "count", 1)
	r.set("session.aborts", float64(s1.Aborts-s0.Aborts), "count", 1)
	r.set("session.pending_max", float64(t.pendingMax), "count", n)

	if tr != nil {
		shareReport(r, tr, "pause", writePauseShares, pauseNs)
		shareReport(r, tr, "durable", writeDurableShares, durableNs)
	}
	return failed
}

// fsReport reports the device layer over epochs epochs.
func fsReport(r report, fs fsSnapshot, epochs int) {
	e := float64(epochs)
	r.set("fs.writes_per_epoch", ratio(float64(fs.writes), e), "count", epochs)
	r.set("fs.write_bytes_per_epoch", ratio(float64(fs.writeBytes), e), "B", epochs)
	r.set("fs.write_ns_p99", quantile(fs.writeNs, 0.99), "ns", len(fs.writeNs))
	r.set("fs.syncs_per_epoch", ratio(float64(fs.syncs), e), "count", epochs)
	r.set("fs.sync_ns_p50", quantile(fs.syncNs, 0.5), "ns", len(fs.syncNs))
	r.set("fs.sync_ns_p99", quantile(fs.syncNs, 0.99), "ns", len(fs.syncNs))
}

// traceEpoch records the span tree of one epoch acknowledged at ack: the
// mutator work it closes, the checkpoint pause (tracker, fold, handoff) and
// the wait for its durable acknowledgement (device write and covering
// fsync).
func traceEpoch(tr *tracer, rec *epochRec, ack time.Time, fs *timingFS) {
	if tr == nil {
		return
	}
	seg, _ := fs.st.seg(rec.epoch)
	e := rec.epoch
	tr.add("mutate", e, -1, rec.mutStart, rec.start)
	root := tr.add("epoch", e, -1, rec.start, ack)
	cp := tr.add("checkpoint", e, root, rec.start, rec.handoffEnd)
	tr.add("tracker", e, cp, rec.start, rec.modeEnd)
	tr.add("fold", e, cp, rec.modeEnd, rec.foldEnd)
	tr.add("handoff", e, cp, rec.foldEnd, rec.handoffEnd)
	wait := tr.add("ackwait", e, root, rec.handoffEnd, ack)
	tr.add("fs.write", e, wait, seg.writeStart, seg.writeEnd)
	tr.add("fs.sync", e, wait, seg.syncStart, seg.syncEnd)
}

// writeShares are the span names whose self time makes up each layer's
// share of a single-stream epoch's pause and durable latency.
var (
	writePauseShares = map[string][]string{
		"tracker": {"tracker"}, "fold": {"fold"}, "handoff": {"handoff"}, "other": {"checkpoint"},
	}
	writeDurableShares = map[string][]string{
		"pause":    {"tracker", "fold", "handoff", "checkpoint"},
		"queue":    {"ackwait", "epoch"},
		"fs_write": {"fs.write"},
		"fs_sync":  {"fs.sync"},
	}
)

// shareReport attributes a traced whole (the sum of the traced epochs' own
// stopwatch readings, in ns) to layers by span self time, and reports each
// share as trace.<whole>_share.<layer> and their sum as
// trace.<whole>_share_sum.
func shareReport(r report, tr *tracer, whole string, parts map[string][]string, totalNs float64) {
	self := tr.selfByName()
	var sum float64
	for layer, spans := range parts {
		var s float64
		for _, n := range spans {
			s += float64(self[n])
		}
		share := ratio(s, totalNs)
		sum += share
		r.set("trace."+whole+"_share."+layer, share, "ratio", 1)
	}
	r.set("trace."+whole+"_share_sum", sum, "ratio", 1)
}

func addShadow(a, b ckpt.ShadowStats) ckpt.ShadowStats {
	return ckpt.ShadowStats{
		Staged: a.Staged + b.Staged, Committed: a.Committed + b.Committed, Aborted: a.Aborted + b.Aborted,
		Wins: a.Wins + b.Wins, Losses: a.Losses + b.Losses, SkippedEmits: a.SkippedEmits + b.SkippedEmits,
	}
}

func addAsync(a, b stablelog.AsyncStats) stablelog.AsyncStats {
	return stablelog.AsyncStats{Acked: a.Acked + b.Acked, Dropped: a.Dropped + b.Dropped, Retried: a.Retried + b.Retried}
}
