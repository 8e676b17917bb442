// Command e2ebench is the repository's end-to-end checkpoint benchmark. One
// process runs one named workload against the public API — ckpt,
// ckpt/parfold, ckpt/tenant and stablelog, on a real log file — and prints
// every metric with its unit and sample count, then one JSON result line.
//
//	e2ebench --workload interp|docs|restart|tenants --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run is split into an untraced and a traced half, and the result
// carries the per-layer metrics, the tracing overhead and the span-based
// attribution of pause and durable latency. Every write workload ends with a
// correctness gate that restarts from the bytes on disk and compares the
// rebuilt state with the live one; a mismatch fails the run (exit 1).
//
// Build and run it through run.sh, which keeps every build and run output
// under .bench_build in the checkout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the checkpoint system sees; every
// workload reports all of them (BENCHMARK.json lists the same names).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"app_ops_per_s", "1/s"},
	{"pause_p50_us", "us"},
	{"durable_p50_ms", "ms"},
	{"log_bytes_per_epoch", "B"},
	{"recover_p50_ms", "ms"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the traced run's metrics on every workload (BENCHMARK.json
// lists the same names). A layer a workload does not exercise reports 0
// with n=0.
var perLayer = []metricDef{
	{"pause_p99_us", "us"},
	{"durable_p99_ms", "ms"},
	{"durable.half_ratio", "ratio"},
	{"failed_share", "ratio"},
	{"recover_p90_ms", "ms"},
	{"rewind_p50_ms", "ms"},
	{"rewind_p90_ms", "ms"},
	{"mutator.ns_per_op", "ns"},
	{"tracker.dirty_per_epoch", "count"},
	{"tracker.full_share", "ratio"},
	{"fold.ns_p50", "ns"},
	{"fold.ns_p99", "ns"},
	{"fold.records_per_epoch", "count"},
	{"fold.ns_per_record", "ns"},
	{"fold.body_bytes_per_epoch", "B"},
	{"fold.allocs_per_epoch", "count"},
	{"shadow.win_share", "ratio"},
	{"shadow.skip_share", "ratio"},
	{"shadow.delta_record_share", "ratio"},
	{"shadow.entries", "count"},
	{"async.handoff_ns_p50", "ns"},
	{"async.handoff_ns_p99", "ns"},
	{"async.ack_wait_ms_p50", "ms"},
	{"async.acked", "count"},
	{"async.dropped", "count"},
	{"async.retried", "count"},
	{"fs.writes_per_epoch", "count"},
	{"fs.write_bytes_per_epoch", "B"},
	{"fs.write_ns_p99", "ns"},
	{"fs.syncs_per_epoch", "count"},
	{"fs.sync_ns_p50", "ns"},
	{"fs.sync_ns_p99", "ns"},
	{"session.commits", "count"},
	{"session.aborts", "count"},
	{"session.pending_max", "count"},
	{"log.open_ms", "ms"},
	{"log.recovery_run_ms", "ms"},
	{"log.recover_ms", "ms"},
	{"rebuilder.build_ms", "ms"},
	{"rebuilder.objects", "count"},
	{"rewind.segments", "count"},
	{"rewind.bytes", "B"},
	{"trace.overhead_pause_p50", "ratio"},
	{"trace.overhead_durable_p50", "ratio"},
	{"trace.overhead_app_ops", "ratio"},
	{"trace.pause_share.tracker", "ratio"},
	{"trace.pause_share.fold", "ratio"},
	{"trace.pause_share.handoff", "ratio"},
	{"trace.pause_share.other", "ratio"},
	{"trace.pause_share_sum", "ratio"},
	{"trace.durable_share.pause", "ratio"},
	{"trace.durable_share.queue", "ratio"},
	{"trace.durable_share.fs_write", "ratio"},
	{"trace.durable_share.fs_sync", "ratio"},
	{"trace.durable_share_sum", "ratio"},
}

// tenantLayer are the per-layer metrics of ckpt/tenant and of the open-loop
// load generator, which only the tenants workload exercises. They are kept
// out of perLayer, and tenants out of BENCHMARK.json, while the tenants
// gate fails on the ckpt/tenant ordering defect: Manager.worker clears
// `queued` before runFold, and runFold Submits after releasing the tenant
// lock, so two workers can Submit one tenant's epochs out of order.
var tenantLayer = []metricDef{
	{"sustained_rps", "1/s"},
	{"tenant.request_ns_p99", "ns"},
	{"tenant.coalesced_share", "ratio"},
	{"tenant.full_share", "ratio"},
	{"tenant.shed_share", "ratio"},
	{"tenant.folds_per_s", "1/s"},
	{"gen.late_p99_ms", "ms"},
}

// layerDefs are the per-layer metrics a traced run of the named workload
// reports.
func layerDefs(name string) []metricDef {
	if name == "tenants" {
		return append(append([]metricDef{}, perLayer...), tenantLayer...)
	}
	return perLayer
}

// workload is one named load the benchmark can run.
type workload interface {
	// setup builds the inputs and opens the log; it is what setup_s times.
	setup() error
	// run measures for d and returns the window's metrics with the number
	// of epochs or requests attempted and not durably acknowledged. A
	// non-nil tracer records spans.
	run(d time.Duration, tr *tracer) (r report, attempted, failed int, err error)
	// gate checks recovered state against live state and adds the
	// read-side metrics.
	gate(r report, tr *tracer) error
	// policy is the workload's stated flush policy.
	policy() flushPolicy
	close()
}

var workloads = map[string]func(seed int64) workload{
	"interp":  func(seed int64) workload { return newInterp(seed) },
	"docs":    func(seed int64) workload { return newDocs(seed) },
	"restart": func(seed int64) workload { return newRestart(seed) },
	"tenants": func(seed int64) workload { return newTenants(seed) },
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 9

// errGate marks a failed correctness gate.
var errGate = errors.New("correctness gate failed")

// outcome is one benchmark run's result.
type outcome struct {
	rep               report
	attempted, failed int
	env               map[string]any
}

// bench runs one workload: set up, measure (split into an untraced and a
// traced half when traced), gate, and collect every metric.
func bench(name string, seed int64, d time.Duration, traced bool) (*outcome, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	heap := startHeapSampler()
	defer heap.Stop()

	var setups []float64
	var w workload
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		w = mk(seed)
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	out := &outcome{env: environment(name, seed, d, traced, w.policy())}
	var tr *tracer
	var base report
	if traced {
		r, a, f, err := w.run(d/2, nil)
		if err != nil {
			return out, err
		}
		base = r
		out.attempted, out.failed = a, f
		tr = newTracer()
		d -= d / 2
	}
	rep, a, f, err := w.run(d, tr)
	if err != nil {
		return out, err
	}
	out.attempted += a
	out.failed += f
	// The peak covers set-up and measurement, not the gate's rebuilds. A
	// workload that read the live heap itself where it peaks, right after a
	// forced collection, reports that reading; the samples may miss it.
	peak, n := heap.Stop()
	if own, ok := rep["heap_peak_mb"]; ok {
		peak = max(peak, own.Value*(1<<20))
		n += own.N
	}
	rep.set("heap_peak_mb", peak/(1<<20), "MB", n)
	if err := w.gate(rep, tr); err != nil {
		return out, fmt.Errorf("%w: %s: %w", errGate, name, err)
	}
	rep.set("setup_s", quantile(setups, 0.5), "s", len(setups))
	if traced {
		rep.set("trace.overhead_pause_p50", ratio(rep["pause_p50_us"].Value, base["pause_p50_us"].Value), "ratio", 1)
		rep.set("trace.overhead_durable_p50", ratio(rep["durable_p50_ms"].Value, base["durable_p50_ms"].Value), "ratio", 1)
		rep.set("trace.overhead_app_ops", ratio(base["app_ops_per_s"].Value, rep["app_ops_per_s"].Value), "ratio", 1)
		for _, sum := range []string{"trace.pause_share_sum", "trace.durable_share_sum"} {
			if v := rep[sum].Value; math.Abs(v-1) > shareTolerance {
				fmt.Fprintf(os.Stderr, "e2ebench: %s = %.4f: the layer shares do not add up to the measured whole within %.2f\n", sum, v, shareTolerance)
			}
		}
		path, err := tr.write(fmt.Sprintf("%s-seed%d", name, seed))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "e2ebench: %d spans written to %s\n", len(tr.spans), path)
		for _, m := range layerDefs(name) {
			if _, ok := rep[m.name]; !ok {
				rep.set(m.name, 0, m.unit, 0)
			}
		}
	}
	out.rep = rep
	return out, nil
}

// environment is the block every output carries: the hardware and runtime
// the numbers were taken on, and the workload's settings.
func environment(name string, seed int64, d time.Duration, traced bool, pol flushPolicy) map[string]any {
	return map[string]any{
		"workload":     name,
		"seed":         seed,
		"seconds":      d.Seconds(),
		"traced":       traced,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"num_cpu":      runtime.NumCPU(),
		"go_version":   runtime.Version(),
		"log_fs":       fsType(benchDir),
		"flush_policy": pol,
		"reads_from":   "OS page cache (logs are read back right after being written)",
	}
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0xF2F52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func main() {
	name := flag.String("workload", "", "workload: interp, docs, restart or tenants")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	if err := os.MkdirAll(benchDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	out, err := bench(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		if errors.Is(err, errGate) {
			line, _ := json.Marshal(result{Correct: false, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]map[string]any{}})
			fmt.Println(string(line))
		}
		os.Exit(1)
	}
	if err := printOutcome(os.Stdout, out, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// printOutcome writes the environment block, the metric table and the
// result line.
func printOutcome(w io.Writer, out *outcome, traced bool) error {
	env, err := json.Marshal(out.env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "env %s\n", env)
	printTable(w, out.rep)
	defs := endToEnd
	if traced {
		defs = layerDefs(out.env["workload"].(string))
	}
	names := make([]string, len(defs))
	for i, m := range defs {
		names[i] = m.name
	}
	line, err := resultLine(out.rep, names, out.attempted, out.failed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}
