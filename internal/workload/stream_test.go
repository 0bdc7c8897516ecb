package workload

import (
	"testing"

	"lava/internal/simtime"
	"lava/internal/trace"
)

// TestStreamMatchesGenerate is the streamed-vs-materialized byte-parity
// gate at the generator level: collecting the record stream must reproduce
// Generate's record slice exactly (same RNG consumption order), and the
// stream's Meta must carry the same pool geometry.
func TestStreamMatchesGenerate(t *testing.T) {
	spec := PoolSpec{
		Name: "stream-parity", Zone: "z1", Hosts: 48, TargetUtil: 0.65,
		Duration: 3 * simtime.Day, Prefill: 2 * simtime.Day,
		Seed: 42, Diurnal: 0.3,
	}
	want, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Stream(spec)
	if err != nil {
		t.Fatal(err)
	}
	meta := g.Meta()
	if meta.PoolName != want.PoolName || meta.Hosts != want.Hosts ||
		meta.HostShape() != want.HostShape() ||
		meta.WarmUp != want.WarmUp || meta.Horizon != want.Horizon {
		t.Fatalf("stream meta %+v disagrees with generated trace header %+v", meta, want)
	}
	got, err := trace.Collect(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Records) {
		t.Fatalf("streamed %d records, generated %d", len(got), len(want.Records))
	}
	for i := range got {
		if got[i] != want.Records[i] {
			t.Fatalf("record %d: streamed %+v, generated %+v", i, got[i], want.Records[i])
		}
	}
}

// TestStreamDeterministic: two streams of the same spec must agree record
// for record (the property the mega scale cells rely on for reproducible
// BENCH rows).
func TestStreamDeterministic(t *testing.T) {
	spec := PoolSpec{
		Name: "stream-det", Zone: "z1", Hosts: 24, TargetUtil: 0.6,
		Duration: 2 * simtime.Day, Seed: 7,
	}
	a, err := Stream(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Stream(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		ra, oka := a.Next()
		rb, okb := b.Next()
		if oka != okb {
			t.Fatalf("streams diverge in length at record %d", i)
		}
		if !oka {
			break
		}
		if ra != rb {
			t.Fatalf("record %d: %+v vs %+v", i, ra, rb)
		}
	}
	if a.Err() != nil || b.Err() != nil {
		t.Fatalf("stream errors: %v, %v", a.Err(), b.Err())
	}
}

// replayScaleSpec is the repository benchmark's replay-scale trace.
var replayScaleSpec = PoolSpec{Name: "replay-scale", Zone: "zone-a", Hosts: 10_000, TargetUtil: 0.65,
	Prefill: 12 * simtime.Hour, Duration: 3 * simtime.Hour, Diurnal: 0.3, Seed: 1}

// TestStreamNextAllocs: the generator's feature strings are a closed set
// interned at construction, so drawing a record formats nothing. A streamed
// replay calls Next inside its timed section, once per VM.
func TestStreamNextAllocs(t *testing.T) {
	g, err := Stream(replayScaleSpec)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Record
	allocs := testing.AllocsPerRun(2000, func() {
		r, ok := g.Next()
		if !ok {
			t.Fatal("stream ended inside the measurement")
		}
		rec = r
	})
	if allocs > 0 {
		t.Errorf("Next allocates %.1f objects per record, want 0 (last %+v)", allocs, rec)
	}
}

// BenchmarkStream is the generator layer of a streamed replay: one record
// per op off the replay-scale spec, restarted when the window runs out.
func BenchmarkStream(b *testing.B) {
	b.ReportAllocs()
	var g *GenStream
	for i := 0; i < b.N; i++ {
		if g == nil {
			var err error
			if g, err = Stream(replayScaleSpec); err != nil {
				b.Fatal(err)
			}
		}
		if _, ok := g.Next(); !ok {
			g = nil
		}
	}
}
