package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"ickpt/ckpt"
	"ickpt/internal/faultfs"
)

// shortRun is the measurement time of the self-tests' benchmark runs.
const shortRun = 600 * time.Millisecond

// TestWorkloadsReportEveryMetric runs every workload untraced and traced and
// checks that each metric the result line promises is there, with its unit
// and a sample count, and that the traced attribution adds up.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			out, err := bench(name, 1, shortRun, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range endToEnd {
				got, ok := out.rep[m.name]
				if !ok || got.Unit != m.unit || got.N < 1 || !(got.Value > 0) {
					t.Errorf("%s = %+v, want a positive value in %s with n >= 1", m.name, got, m.unit)
				}
			}
			checkResultLine(t, out, false)

			out, err = bench(name, 1, shortRun, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range layerDefs(name) {
				got, ok := out.rep[m.name]
				if !ok || got.Unit != m.unit || got.N < 0 || math.IsNaN(got.Value) {
					t.Errorf("%s = %+v, want a value in %s", m.name, got, m.unit)
				}
			}
			if name == "tenants" {
				for _, m := range tenantLayer {
					if got := out.rep[m.name]; got.N < 1 {
						t.Errorf("%s = %+v, want n >= 1 on tenants", m.name, got)
					}
				}
			}
			for _, sum := range []string{"trace.pause_share_sum", "trace.durable_share_sum"} {
				if got := out.rep[sum].Value; math.Abs(got-1) > shareTolerance {
					t.Errorf("%s = %.4f, want 1 ± %.2f", sum, got, shareTolerance)
				}
			}
			checkResultLine(t, out, true)
		})
	}
}

// checkResultLine renders the result line and checks its shape.
func checkResultLine(t *testing.T, out *outcome, traced bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := printOutcome(&buf, out, traced); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64
			Unit  string
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	want := endToEnd
	if traced {
		want = layerDefs(out.env["workload"].(string))
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
		t.Errorf("result = %+v, want correct, attempted >= 1, no failures and %d metrics", res, len(want))
	}
}

// TestBenchmarkManifest checks that BENCHMARK.json names the metrics this
// program prints, with the same units, and only workloads it can run.
func TestBenchmarkManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
}

// TestGateCatchesCorruption checks that the correctness gate fails when the
// log on disk and the live state disagree: a flipped byte in the log, or an
// edit that never reached it.
func TestGateCatchesCorruption(t *testing.T) {
	cases := map[string]func(t *testing.T, l *docsLoad){
		"flipped byte": func(t *testing.T, l *docsLoad) {
			raw, err := os.ReadFile(l.q.st.path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-8] ^= 0x40
			if err := os.WriteFile(l.q.st.path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"unlogged edit": func(t *testing.T, l *docsLoad) {
			l.store.edit()
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			l := newDocs(1)
			defer l.close()
			if err := l.setup(); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := l.run(100*time.Millisecond, nil); err != nil {
				t.Fatal(err)
			}
			if err := l.q.st.close(); err != nil {
				t.Fatal(err)
			}
			corrupt(t, l)
			want, n, err := liveDigest(l.store.roots...)
			if err != nil {
				t.Fatal(err)
			}
			var rs readStats
			if err := gateStream(l.q.st.path, docRegistry(), want, n, gateReps, l.rng, &rs); err == nil {
				t.Fatal("gate passed over a log that does not match the live state")
			}
		})
	}
}

// TestDroppedAckRaisesFailedShare checks that epochs whose bodies never
// became durable — here a failed group-commit fsync — are counted as failed.
func TestDroppedAckRaisesFailedShare(t *testing.T) {
	mem := faultfs.NewMem()
	fs := &timingFS{inner: mem, st: newTimingFS().st}
	sess := ckpt.NewSession()
	st, err := openStream("/mem", "dropped.log", flushPolicy{QueueLimit: 4, SyncEvery: 8}, sess, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	w := newWindow(counters{}, false)
	mem.FailSync(1, errors.New("injected fsync failure"))
	for e := uint64(1); e <= 3; e++ {
		rec := &epochRec{epoch: e, mode: ckpt.Incremental, start: time.Now()}
		st.begin(rec)
		if err := st.aw.Append(ckpt.Incremental, e, []byte("body")); err != nil {
			t.Fatal(err)
		}
		rec.handoffEnd = time.Now()
		w.add(rec)
		w.op(1)
	}
	if err := st.aw.Flush(); err == nil {
		t.Fatal("flush succeeded over a failed fsync")
	}
	// The writer acknowledges the dropped epochs after Flush has returned;
	// close waits for it to finish.
	if err := st.close(); err == nil {
		t.Fatal("close succeeded over a failed fsync")
	}
	w.elapsed = time.Since(w.start)
	r := report{}
	if got := writeReport(r, fs, w, nil); got != 3 {
		t.Errorf("failed epochs = %d, want 3", got)
	}
	if got := r["failed_share"].Value; got != 1 {
		t.Errorf("failed_share = %v, want 1 (no epoch was durable)", got)
	}
}

// TestSelfTime checks span self time: a parent minus the union of its
// children, clipped to the parent.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("root", 1, -1, at(0), at(10))
	tr.add("a", 1, root, at(1), at(4))
	tr.add("b", 1, root, at(3), at(6))  // overlaps a
	tr.add("c", 1, root, at(8), at(12)) // runs past the parent
	self := tr.selfByName()
	if got, want := self["root"], int64(10-5-2)*int64(time.Millisecond); got != want {
		t.Errorf("root self time = %v, want %v", time.Duration(got), time.Duration(want))
	}
	if got, want := self["c"], int64(4*time.Millisecond); got != want {
		t.Errorf("leaf self time = %v, want %v", time.Duration(got), time.Duration(want))
	}
}
