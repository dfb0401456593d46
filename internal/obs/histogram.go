package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram: Observe is a bucket search
// plus three atomic operations — no allocation, no lock — so it is
// safe to fold into per-run and per-request paths. Buckets are chosen
// at registration and never change.
type Histogram struct {
	uppers []float64
	counts []atomic.Int64 // len(uppers)+1; last bucket is +Inf
	count  atomic.Int64
	sum    atomicFloat
}

func newHistogram(uppers []float64) *Histogram {
	return &Histogram{
		uppers: append([]float64(nil), uppers...),
		counts: make([]atomic.Int64, len(uppers)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v — the le semantics.
	i := sort.SearchFloat64s(h.uppers, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// write renders the _bucket/_sum/_count series with cumulative bucket
// counts, per the exposition format.
func (h *Histogram) write(b *strings.Builder, name string, labelNames, labelValues []string) {
	cum := int64(0)
	for i, upper := range h.uppers {
		cum += h.counts[i].Load()
		le := fmt.Sprintf(`le="%s"`, formatFloat(upper))
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, renderLabels(labelNames, labelValues, le), cum)
	}
	cum += h.counts[len(h.uppers)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, renderLabels(labelNames, labelValues, `le="+Inf"`), cum)
	labels := renderLabels(labelNames, labelValues, "")
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatFloat(h.sum.load()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, h.count.Load())
}

// atomicFloat is a float64 updated by CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// LatencyBuckets is the shared bucket ladder for request, cell and
// shard durations, in seconds: 1ms to 60s, roughly 2.5× per step.
// One ladder for every latency family keeps cross-metric comparisons
// (and the catalog in DESIGN.md § "Observability (internal/obs)") simple.
func LatencyBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
}

// ExpBuckets returns n ascending buckets starting at start, each
// factor times the previous — the ladder for open-ended count
// distributions (rounds per run, ns per round).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: ExpBuckets(%v, %v, %d): need start > 0, factor > 1, n >= 1", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
