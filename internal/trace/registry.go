package trace

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// MetricKind classifies a registry metric.
type MetricKind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter MetricKind = iota
	// KindHistogram is a log2-bucketed distribution of uint64 samples.
	KindHistogram
)

// String returns the kind's wire name.
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindHistogram:
		return "hist"
	}
	return "unknown"
}

// Metric is one registry entry. Counters use Value; histograms
// use Count/Sum/Max/Buckets, where Buckets[i] counts observations v with
// bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i (bucket 0 holds v == 0).
type Metric struct {
	Name    string
	Kind    MetricKind
	Value   uint64
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets []uint64
}

// Add increments a counter by n.
func (m *Metric) Add(n uint64) { m.Value += n }

// Observe records one histogram sample.
func (m *Metric) Observe(v uint64) {
	b := bits.Len64(v)
	for len(m.Buckets) <= b {
		m.Buckets = append(m.Buckets, 0)
	}
	m.Buckets[b]++
	m.Count++
	m.Sum += v
	if v > m.Max {
		m.Max = v
	}
}

// Mean returns the histogram's mean sample value.
func (m *Metric) Mean() float64 {
	if m.Count == 0 {
		return 0
	}
	return float64(m.Sum) / float64(m.Count)
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of a
// histogram: the exclusive upper edge of the bucket holding the q-th
// sample. Log-bucketed, so the bound is within 2x of the true value.
func (m *Metric) Quantile(q float64) uint64 {
	if m.Count == 0 {
		return 0
	}
	target := uint64(q * float64(m.Count))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for b, n := range m.Buckets {
		seen += n
		if seen >= target {
			if b == 0 {
				return 0
			}
			return 1 << b // exclusive upper edge of bucket b
		}
	}
	return m.Max
}

// clone returns a deep copy of the metric.
func (m *Metric) clone() Metric {
	cp := *m
	cp.Buckets = slices.Clone(m.Buckets)
	return cp
}

// Registry is a small deterministic metrics registry: named counters and
// log-bucketed histograms, snapshotable at any collection boundary.
// Lookup order never leaks into output — snapshots are sorted by name.
type Registry struct {
	byName map[string]*Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Metric)}
}

func (r *Registry) metric(name string, kind MetricKind) *Metric {
	m, ok := r.byName[name]
	if !ok {
		m = &Metric{Name: name, Kind: kind}
		r.byName[name] = m
		return m
	}
	if m.Kind != kind {
		panic(fmt.Sprintf("trace: metric %q registered as %v, requested as %v", name, m.Kind, kind))
	}
	return m
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Metric { return r.metric(name, KindCounter) }

// Histogram returns (creating on first use) the named histogram.
func (r *Registry) Histogram(name string) *Metric { return r.metric(name, KindHistogram) }

// Lookup returns the named metric if it exists.
func (r *Registry) Lookup(name string) (*Metric, bool) {
	m, ok := r.byName[name]
	return m, ok
}

// Snapshot returns deep copies of all metrics, sorted by name.
func (r *Registry) Snapshot() []Metric {
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Metric, len(names))
	for i, n := range names {
		out[i] = r.byName[n].clone()
	}
	return out
}
