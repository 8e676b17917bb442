package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ickpt/ckpt"
	"ickpt/ckpt/tenant"
	"ickpt/internal/synth"
	"ickpt/stablelog"
)

// tenants: a tenant.Manager serving many small synth populations (the
// paper's compound structures) on one shared log, open loop. Arrivals are
// seeded Poisson at a fixed offered rate, Zipf over tenants; each runs
// Tenant.Update (a mutation) and then TryRequest. Latency is timed from each
// arrival's due time to the fsync that made the epoch covering its mutation
// durable, so queueing in the scheduler, admission shedding, the shared group
// commit and the acknowledgement demux all show — and only here.

const (
	tenantsCount     = 256
	tenantsZipfS     = 1.1
	tenantsAdmission = 64
	tenantsSample    = 48
	// tenantsLimitMs is the durable_p99_ms limit a ladder rate must meet to
	// count as sustained.
	tenantsLimitMs = 50
)

// tenantsRates is the offered-rate ladder in arrivals per second. The
// first rate is the nominal one the end-to-end metrics are taken at; it
// gets half the run, the others share the rest.
var tenantsRates = []float64{2000, 4000, 8000}

var tenantsPolicy = flushPolicy{QueueLimit: 64, SyncEvery: 16, SyncInterval: 2 * time.Millisecond}

var tenantsShape = synth.Shape{Structures: 4, ListLen: 3, Kind: synth.Ints1}

var tenantsMutation = synth.ModPattern{Percent: 25, ModifiableLists: 2}

type tenantsLoad struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	dir     string
	path    string
	fs      *timingFS
	lg      *stablelog.Log
	m       *tenant.Manager
	loads   []*synth.Workload
	tenants []*tenant.Tenant
	sess    []*ckpt.Session
	// peakLive is the highest live heap read at a rung's end, in bytes.
	peakLive float64
}

func newTenants(seed int64) *tenantsLoad {
	rng := rand.New(rand.NewSource(seed))
	return &tenantsLoad{rng: rng, zipf: rand.NewZipf(rng, tenantsZipfS, 1, tenantsCount-1)}
}

func (l *tenantsLoad) policy() flushPolicy { return tenantsPolicy }

func tenantID(i int) uint32 { return uint32(i + 1) }

func (l *tenantsLoad) setup() error {
	dir, err := tempDir("tenants")
	if err != nil {
		return err
	}
	l.dir = dir
	l.path = filepath.Join(dir, "tenants.log")
	l.fs = newTimingFS()
	if l.lg, err = stablelog.Create(l.path, stablelog.WithFS(l.fs)); err != nil {
		return err
	}
	l.m = tenant.NewManager(l.lg,
		tenant.WithWorkers(runtime.GOMAXPROCS(0)),
		tenant.WithQueueLimit(tenantsAdmission),
		tenant.WithLogQueueLimit(tenantsPolicy.QueueLimit),
		tenant.WithSyncEvery(tenantsPolicy.SyncEvery),
		tenant.WithSyncInterval(tenantsPolicy.SyncInterval))
	for i := 0; i < tenantsCount; i++ {
		w := synth.Build(tenantsShape)
		if err := w.Drain(); err != nil {
			return err
		}
		tn := l.m.Tenant(tenantID(i))
		if err := tn.Init(w.Domain, nil, w.Roots()...); err != nil {
			return err
		}
		l.loads = append(l.loads, w)
		l.tenants = append(l.tenants, tn)
		l.sess = append(l.sess, tn.Session())
	}
	// Every tenant takes its Full anchor before the measured window.
	for _, tn := range l.tenants {
		if err := tn.Request(); err != nil {
			return err
		}
	}
	return l.m.Flush()
}

// arrival is one open-loop request and what happened to it.
type arrival struct {
	due, start, updEnd, reqEnd time.Time
	mutNs                      int64
	tenant                     int
	epoch                      uint64 // wire epoch of the fold covering the mutation
	shed                       bool
	pending                    int // the tenant's in-flight epochs after the request
}

// tenantTotals sums the per-tenant and shared counters.
type tenantTotals struct {
	st   tenant.Stats
	sess ckpt.SessionStats
	log  stablelog.AsyncStats
}

func (l *tenantsLoad) totals() tenantTotals {
	var t tenantTotals
	for i, tn := range l.tenants {
		s := tn.Stats()
		t.st.Folds += s.Folds
		t.st.FullFolds += s.FullFolds
		t.st.Shed += s.Shed
		t.st.Coalesced += s.Coalesced
		ss := l.sess[i].Stats()
		t.sess.Commits += ss.Commits
		t.sess.Aborts += ss.Aborts
	}
	t.log = l.m.LogStats()
	return t
}

// rung offers rate arrivals per second for d, then drains the service.
// The device counters start from zero; they and the arrivals are sized for
// the expected count up front, so that neither steps the heap mid-rung.
func (l *tenantsLoad) rung(rate float64, d time.Duration, traced bool) ([]arrival, time.Duration, error) {
	expect := int(rate*d.Seconds()*5/4) + 16
	l.fs.st.reset(true, expect)
	out := make([]arrival, 0, expect)
	start := time.Now()
	end := start.Add(d)
	due := start
	for {
		due = due.Add(time.Duration(l.rng.ExpFloat64() / rate * float64(time.Second)))
		if !due.Before(end) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		a := arrival{due: due, tenant: int(l.zipf.Uint64())}
		a.start = time.Now()
		w, sess := l.loads[a.tenant], l.sess[a.tenant]
		var covering int
		l.tenants[a.tenant].Update(func() {
			// No fold of this tenant runs inside Update, so the next epoch
			// the tenant folds is the first to capture this mutation.
			covering = sess.Stats().Epochs + 1
			var m0 time.Time
			if traced {
				m0 = time.Now()
			}
			for w.Mutate(l.rng, tenantsMutation) == 0 {
			}
			if traced {
				a.mutNs = int64(time.Since(m0))
			}
		})
		a.updEnd = time.Now()
		ok, err := l.tenants[a.tenant].TryRequest()
		if err != nil {
			return nil, 0, err
		}
		a.reqEnd = time.Now()
		a.shed = !ok
		a.pending = sess.Pending()
		a.epoch = tenant.WireEpoch(tenantID(a.tenant), uint64(covering))
		out = append(out, a)
	}
	elapsed := time.Since(start)
	if err := l.m.Flush(); err != nil {
		return nil, 0, fmt.Errorf("tenants flush: %w", err)
	}
	// This workload allocates so little that the collector runs a handful
	// of times a run, and the live heap the sampler reads depends on where
	// those few collections fell. A collection at the end of each rung,
	// while the rung's data is still held, measures the heap where it
	// peaks; run reports the highest as heap_peak_mb.
	runtime.GC()
	if v, ok := liveHeap(); ok {
		l.peakLive = max(l.peakLive, v)
	}
	return out, elapsed, nil
}

// tenantsPauseShares and tenantsDurableShares map the arrival spans onto the
// layer shares the write workloads report: the request is the handoff to the
// checkpoint service, the update (mutation under the tenant lock, waiting
// out any fold of that tenant) the rest of the pause; scheduling, folding
// and group-commit waiting are the queue.
var (
	tenantsPauseShares = map[string][]string{
		"tracker": nil, "fold": nil, "handoff": {"request"}, "other": {"update", "pause"},
	}
	tenantsDurableShares = map[string][]string{
		"pause":    {"update", "request", "pause"},
		"queue":    {"arrival", "gen.late"},
		"fs_write": {"fs.write"},
		"fs_sync":  {"fs.sync"},
	}
)

// served reports an arrival's durable latency, or false when it failed: shed
// at admission, or its covering epoch never became durable.
func (l *tenantsLoad) served(a arrival) (segTiming, time.Duration, bool) {
	seg, ok := l.fs.st.seg(a.epoch)
	if a.shed || !ok || seg.syncEnd.IsZero() {
		return seg, 0, false
	}
	return seg, seg.syncEnd.Sub(a.due), true
}

// sustains reports whether a rung met the latency limit with nothing
// failed and no growing backlog: the second half's median latency stays
// within twice the first half's.
func (l *tenantsLoad) sustains(arrs []arrival) bool {
	var first, second, all, late []float64
	for i, a := range arrs {
		_, d, ok := l.served(a)
		if !ok {
			return false
		}
		all = append(all, ms(d))
		late = append(late, ms(a.start.Sub(a.due)))
		if i < len(arrs)/2 {
			first = append(first, ms(d))
		} else {
			second = append(second, ms(d))
		}
	}
	return len(all) > 0 &&
		quantile(all, 0.99) <= tenantsLimitMs &&
		quantile(late, 0.99) <= tenantsLimitMs &&
		quantile(second, 0.5) <= 2*quantile(first, 0.5)
}

func (l *tenantsLoad) run(d time.Duration, tr *tracer) (report, int, int, error) {
	nominal := d / 2
	before := l.totals()
	arrs, elapsed, err := l.rung(tenantsRates[0], nominal, tr != nil)
	if err != nil {
		return nil, 0, 0, err
	}
	after := l.totals()
	r := report{}
	failed := l.arrivalReport(r, arrs, elapsed, before, after, tr)

	sustained := 0.0
	ok := l.sustains(arrs)
	if ok {
		sustained = tenantsRates[0]
	}
	attempted := len(arrs)
	rest := (d - nominal) / time.Duration(len(tenantsRates)-1)
	for _, rate := range tenantsRates[1:] {
		more, _, err := l.rung(rate, rest, false)
		if err != nil {
			return nil, 0, 0, err
		}
		if ok = ok && l.sustains(more); ok {
			sustained = rate
		}
	}
	r.set("sustained_rps", sustained, "1/s", len(tenantsRates))
	r.set("heap_peak_mb", l.peakLive/(1<<20), "MB", len(tenantsRates))
	return r, attempted, failed, nil
}

// arrivalReport computes the nominal rung's metrics and returns the number
// of failed arrivals.
func (l *tenantsLoad) arrivalReport(r report, arrs []arrival, elapsed time.Duration, before, after tenantTotals, tr *tracer) int {
	var pause, durable, durA, durB, request, late []float64
	var mutNs, pauseNs, durableNs float64
	failed, pendingMax := 0, 0
	for i, a := range arrs {
		p := a.reqEnd.Sub(a.start)
		pause = append(pause, float64(p)/1e3)
		request = append(request, float64(a.reqEnd.Sub(a.updEnd)))
		late = append(late, ms(a.start.Sub(a.due)))
		mutNs += float64(a.mutNs)
		pendingMax = max(pendingMax, a.pending)
		seg, d, ok := l.served(a)
		if !ok {
			failed++
			continue
		}
		durable = append(durable, ms(d))
		if i < len(arrs)/2 {
			durA = append(durA, ms(d))
		} else {
			durB = append(durB, ms(d))
		}
		if tr != nil {
			pauseNs += float64(p)
			durableNs += float64(d)
			root := tr.add("arrival", uint64(i), -1, a.due, seg.syncEnd)
			tr.add("gen.late", uint64(i), root, a.due, a.start)
			pz := tr.add("pause", uint64(i), root, a.start, a.reqEnd)
			tr.add("update", uint64(i), pz, a.start, a.updEnd)
			tr.add("request", uint64(i), pz, a.updEnd, a.reqEnd)
			tr.add("fs.write", uint64(i), root, seg.writeStart, seg.writeEnd)
			tr.add("fs.sync", uint64(i), root, seg.syncStart, seg.syncEnd)
		}
	}
	n := len(arrs)
	folds := float64(after.st.Folds - before.st.Folds)
	fs := l.fs.st.snapshot()
	r.set("app_ops_per_s", float64(n-failed)/elapsed.Seconds(), "1/s", n)
	r.set("pause_p50_us", quantile(pause, 0.5), "us", n)
	r.set("pause_p99_us", quantile(pause, 0.99), "us", n)
	r.set("durable_p50_ms", quantile(durable, 0.5), "ms", len(durable))
	r.set("durable_p99_ms", quantile(durable, 0.99), "ms", len(durable))
	r.set("durable.half_ratio", ratio(quantile(durB, 0.5), quantile(durA, 0.5)), "ratio", len(durB))
	r.set("log_bytes_per_epoch", ratio(float64(fs.writeBytes), folds), "B", int(folds))
	r.set("failed_share", ratio(float64(failed), float64(n)), "ratio", n)
	r.set("mutator.ns_per_op", ratio(mutNs, float64(n)), "ns", n)
	r.set("tenant.request_ns_p99", quantile(request, 0.99), "ns", n)
	r.set("tenant.coalesced_share", ratio(float64(after.st.Coalesced-before.st.Coalesced), float64(n)), "ratio", n)
	r.set("tenant.shed_share", ratio(float64(after.st.Shed-before.st.Shed), float64(n)), "ratio", n)
	r.set("tenant.full_share", ratio(float64(after.st.FullFolds-before.st.FullFolds), folds), "ratio", int(folds))
	r.set("tenant.folds_per_s", folds/elapsed.Seconds(), "1/s", int(folds))
	r.set("gen.late_p99_ms", quantile(late, 0.99), "ms", n)
	r.set("async.acked", float64(after.log.Acked-before.log.Acked), "count", 1)
	r.set("async.dropped", float64(after.log.Dropped-before.log.Dropped), "count", 1)
	r.set("async.retried", float64(after.log.Retried-before.log.Retried), "count", 1)
	fsReport(r, fs, int(folds))
	r.set("session.commits", float64(after.sess.Commits-before.sess.Commits), "count", 1)
	r.set("session.aborts", float64(after.sess.Aborts-before.sess.Aborts), "count", 1)
	r.set("session.pending_max", float64(pendingMax), "count", n)
	if tr != nil {
		shareReport(r, tr, "pause", tenantsPauseShares, pauseNs)
		shareReport(r, tr, "durable", tenantsDurableShares, durableNs)
	}
	return failed
}

// gate checkpoints every tenant one last time — a shed request leaves its
// tenant's latest mutations unlogged until the next admitted one — closes
// the service, and restarts a seeded sample of tenants from the shared log,
// comparing each rebuilt tenant with its live state.
func (l *tenantsLoad) gate(r report, tr *tracer) error {
	for _, tn := range l.tenants {
		if err := tn.Request(); err != nil {
			return err
		}
	}
	if err := l.m.Close(); err != nil {
		return fmt.Errorf("tenants close: %w", err)
	}
	l.m = nil
	if err := l.lg.Close(); err != nil {
		return err
	}
	l.lg = nil
	var reads readStats
	runtime.GC() // as in gateStream
	for _, i := range l.rng.Perm(tenantsCount)[:tenantsSample] {
		want, n, err := liveDigest(l.loads[i].Roots()...)
		if err != nil {
			return err
		}
		t, objs, err := recoverTenant(l.path, tenantID(i))
		if err != nil {
			return err
		}
		if got := builtDigest(objs); got != want || len(objs) != n {
			return fmt.Errorf("gate: tenant %d recovered state differs from live state (%d objects, want %d)", tenantID(i), len(objs), n)
		}
		reads.recovers = append(reads.recovers, t)
	}
	reads.report(r, tr)
	return nil
}

// recoverTenant restarts one tenant from the shared log: Open, the
// tenant's recovery-run filter, tenant.Recover and Build.
func recoverTenant(path string, id uint32) (readTiming, map[uint64]ckpt.Restorable, error) {
	t, objs, err := recoverWith(path, synth.Registry(),
		func(lg *stablelog.Log) ([]stablelog.SegmentInfo, error) { return tenant.RecoveryRun(lg, id) },
		func(lg *stablelog.Log, rb *ckpt.Rebuilder) error { return tenant.Recover(lg, id, rb) })
	if err != nil {
		return t, nil, fmt.Errorf("tenant %d: %w", id, err)
	}
	return t, objs, nil
}

func (l *tenantsLoad) close() {
	if l.m != nil {
		l.m.Close()
	}
	if l.lg != nil {
		l.lg.Close()
	}
	os.RemoveAll(l.dir)
}
