package trace

import (
	"bytes"
	"io"
	"testing"

	"tilgc/internal/costmodel"
	"tilgc/internal/obj"
)

// serverShapedTrace builds a one-run trace shaped like a server-traced
// copy run (ServerDripChurn at T=4 W=4): 156 collections, each with a
// gc_begin, a gc_end and a heap sample, 1,572 phase records among them,
// and reqs request spans. Magnitudes are a real run's, so lines are as
// long as its lines.
func serverShapedTrace(reqs int) *File {
	const gcs, phasePairs = 156, 786
	d := &RunData{Label: "ServerDripChurn/gen+markers+pretenure k=1.2 T=4 W=4 old=copy"}
	b := costmodel.Breakdown{Client: 100_000_000}
	phases := Phases()
	for seq := uint64(1); seq <= gcs; seq++ {
		b.Client += 2_345_678
		d.Events = append(d.Events, Event{Kind: EvGCBegin, Seq: seq, Major: seq%16 == 0, Break: b})
		pairs := phasePairs / gcs
		if seq <= phasePairs%gcs {
			pairs++
		}
		for i := range pairs {
			p := phases[i%len(phases)]
			d.Events = append(d.Events, Event{Kind: EvPhaseBegin, Seq: seq, Phase: p, Break: b})
			b.GCStack += 3_456
			b.GCCopy += 45_678
			end := Event{Kind: EvPhaseEnd, Seq: seq, Phase: p, Break: b}
			if i == 1 {
				end.Workers = []uint64{45_678, 40_001, 39_876, 41_234}
			}
			d.Events = append(d.Events, end)
		}
		d.Events = append(d.Events, Event{Kind: EvGCEnd, Seq: seq, Break: b, Counters: &GCCounters{
			Majors: seq / 16, FramesDecoded: 1_234, FramesReused: 5_678, MarkersPlaced: 91,
			RootsFound: 4_321, BytesCopied: 234_567, BytesScanned: 345_678, ObjectsCopied: 9_876,
			SSBProcessed: 321, LOSSwept: 2, Pretenured: 17}})
		d.Heap = append(d.Heap, HeapSample{Seq: seq, Break: b, Spaces: []SpaceOcc{
			{Name: "nursery", Live: 1_234, Committed: 65_536},
			{Name: "tenured", Live: 456_789, Committed: 1_048_576},
			{Name: "los", Live: 12_345, Committed: 16_384}}})
	}
	for i := range uint64(reqs) {
		begin := costmodel.Breakdown{Client: costmodel.Cycles(100_000_000 + i*13_579),
			GCStack: costmodel.Cycles(1_000_000 + i*37), GCCopy: costmodel.Cycles(20_000_000 + i*531)}
		end := begin
		end.Client += 98_765
		end.GCCopy += costmodel.Cycles(i%7) * 4_567
		d.Reqs = append(d.Reqs, RequestSpan{ID: i, Begin: begin, End: end})
	}
	b.Client += 1_000
	d.Final = b
	for s := range 24 {
		d.Sites = append(d.Sites, SiteCounters{Site: obj.SiteID(1000 + s), Name: "server.alloc",
			AllocObjects: 123_456, AllocWords: 987_654, CopiedWords: 45_678, TenuredWords: 12_345, DiedWords: 987_654})
	}
	d.Metrics = []Metric{
		{Name: MetricGCCount, Kind: KindCounter, Value: gcs},
		{Name: MetricGCMajors, Kind: KindCounter, Value: gcs / 16},
		{Name: MetricPauseCycles, Kind: KindHistogram, Count: gcs, Sum: 7_654_321, Max: 98_765,
			Buckets: []uint64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 80, 60, 13}},
	}
	return NewFile(d)
}

// TestTraceCodecAllocs: encoding a warm File allocates the same small
// number of times whatever its length, and decoding allocates little
// beyond the parsed trace's own slices.
func TestTraceCodecAllocs(t *testing.T) {
	big, small := serverShapedTrace(24_000), serverShapedTrace(2_400)
	encode := func(f *File) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := f.WriteJSONL(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if nSmall, nBig := encode(small), encode(big); nSmall != nBig || nBig > 4 {
		t.Errorf("encoding allocates %v times for 2,400 requests and %v for 24,000; want one small constant", nSmall, nBig)
	}

	var buf bytes.Buffer
	if err := big.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(3, func() {
		if _, err := ReadJSONL(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if n > 5_000 {
		t.Errorf("decoding a %d-byte trace allocates %v times, want at most 5,000", buf.Len(), n)
	}
}

// BenchmarkTraceCodec encodes and decodes a trace shaped like one
// server-traced copy run: 24,000 req records, 1,572 phase records and
// 156 each of gc_begin, gc_end and heap.
func BenchmarkTraceCodec(b *testing.B) {
	f := serverShapedTrace(24_000)
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(buf.Len()))
		b.ReportAllocs()
		for b.Loop() {
			if err := f.WriteJSONL(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(buf.Len()))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := ReadJSONL(bytes.NewReader(buf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}
