package trace

import (
	"fmt"
	"math/bits"
	"slices"
)

// MetricKind classifies a metric record.
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

// Metric is one metric record. Counters use Value; histograms
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

// Quantile returns an upper bound on a histogram's percentile ppm
// (parts per million, as for Percentile): the exclusive upper edge of
// the bucket holding the sample of nearest rank ceil(ppm*n/1e6),
// clamped to [1, n]. Log-bucketed, so the bound is within 2x of the
// true value.
func (m *Metric) Quantile(ppm uint64) uint64 {
	if m.Count == 0 {
		return 0
	}
	target := max(1, min(m.Count, (ppm*m.Count+1e6-1)/1e6))
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

// equal reports whether two metric records carry the same values; an
// empty bucket list equals a missing one, as on the wire.
func (m *Metric) equal(o *Metric) bool {
	return m.Name == o.Name && m.Kind == o.Kind && m.Value == o.Value && m.Count == o.Count &&
		m.Sum == o.Sum && m.Max == o.Max && slices.Equal(m.Buckets, o.Buckets)
}

// metricsView returns a run's metric records, sorted by name, as a view
// of what the run records elsewhere: gc.count, gc.majors and the
// gc.pause_cycles histogram come from the collection spans summarized in
// s, and adapt.promotions and adapt.demotions from the advisor's
// decisions. The two facts no other record carries are arguments: the
// mutator's returns through marker stubs, and the advisor's sample
// count, where sampled says the advisor counted any (even zero). The
// adapt.* records appear only on runs where the advisor reported
// something, so non-adaptive runs carry none.
func metricsView(s *RunSummary, adapt []AdaptDecision, stubReturns, samples uint64, sampled bool) []Metric {
	pauses := Metric{Name: MetricPauseCycles, Kind: KindHistogram}
	for _, p := range s.Pauses {
		pauses.Observe(uint64(p.Cycles))
	}
	gc := []Metric{
		{Name: MetricGCCount, Kind: KindCounter, Value: s.GCs},
		{Name: MetricGCMajors, Kind: KindCounter, Value: s.Majors},
		pauses,
		{Name: MetricStubReturns, Kind: KindCounter, Value: stubReturns},
	}
	if !sampled && len(adapt) == 0 {
		return gc
	}
	var proms, demos uint64
	for _, a := range adapt {
		switch a.Verb {
		case AdaptPromote, AdaptWarm:
			proms++
		case AdaptDemote:
			demos++
		}
	}
	return append([]Metric{
		{Name: MetricAdaptDemotions, Kind: KindCounter, Value: demos},
		{Name: MetricAdaptPromotions, Kind: KindCounter, Value: proms},
		{Name: MetricAdaptSamples, Kind: KindCounter, Value: samples},
	}, gc...)
}

// checkMetrics rejects a run whose metric records are not the view
// metricsView derives from its other records and its own stub-return and
// advisor-sample counts.
func (d *RunData) checkMetrics() error {
	var stubReturns, samples uint64
	sampled := false
	for _, m := range d.Metrics {
		switch m.Name {
		case MetricStubReturns:
			stubReturns = m.Value
		case MetricAdaptSamples:
			samples, sampled = m.Value, true
		}
	}
	want := metricsView(d.Summarize(), d.Adapt, stubReturns, samples, sampled)
	if len(d.Metrics) != len(want) {
		return fmt.Errorf("%d metric records, want %d", len(d.Metrics), len(want))
	}
	for i := range want {
		if !d.Metrics[i].equal(&want[i]) {
			return fmt.Errorf("metric %d (%s) disagrees with the run's other records: got %+v, want %+v",
				i, d.Metrics[i].Name, d.Metrics[i], want[i])
		}
	}
	return nil
}
