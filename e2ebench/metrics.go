package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"
)

// metric is one reported number with its unit and the sample count behind
// it (1 for a single measured total).
type metric struct {
	Value float64
	Unit  string
	N     int
}

// report is the set of metrics one run prints.
type report map[string]metric

func (r report) set(name string, value float64, unit string, n int) {
	r[name] = metric{Value: value, Unit: unit, N: n}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapSampler tracks the live Go heap — the bytes the last garbage
// collection found reachable — by polling runtime/metrics, which does not
// stop the world. Live bytes, unlike heap in use, do not depend on when the
// collector happened to run. The peak it reports is the 99th percentile of
// the samples, which one unlucky collection cannot move.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	mu      sync.Mutex
	samples []float64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	v, ok := liveHeap()
	if !ok {
		return
	}
	h.mu.Lock()
	h.samples = append(h.samples, v)
	h.mu.Unlock()
}

// liveHeap returns the bytes the last garbage collection found reachable;
// ok is false where the runtime does not report it.
func liveHeap() (float64, bool) {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0, false
	}
	return float64(s[0].Value.Uint64()), true
}

// Stop ends sampling and returns the peak live heap in bytes with the
// number of samples behind it. Later calls return the same result.
func (h *heapSampler) Stop() (float64, int) {
	h.once.Do(func() {
		close(h.stop)
		<-h.done
		h.sample()
	})
	h.mu.Lock()
	defer h.mu.Unlock()
	return quantile(h.samples, 0.99), len(h.samples)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

// printTable writes every metric with its unit and sample count, one a line,
// in name order.
func printTable(w io.Writer, r report) {
	names := make([]string, 0, len(r))
	for n := range r {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r[n]
		fmt.Fprintf(w, "%-32s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.N)
	}
}

// resultLine renders the selected metrics as the final JSON line of a run
// whose correctness gate passed.
func resultLine(r report, names []string, attempted, failed int) ([]byte, error) {
	out := result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]map[string]any{}}
	for _, n := range names {
		m, ok := r[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out.Metrics[n] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return json.Marshal(out)
}
