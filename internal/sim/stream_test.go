package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"lava/internal/model"
	"lava/internal/scheduler"
	"lava/internal/simtime"
	"lava/internal/trace"
	"lava/internal/workload"
)

// TestStreamedReplayMatchesMaterialized is the end-to-end parity gate for
// the streaming path: replaying a workload record by record through
// Config.Source must produce a Result identical to replaying the same
// spec's materialized trace — same counts, same model calls, same
// aggregates, same sample series — for every policy family, including the
// epoch-quantized variant the mega scale cells run.
func TestStreamedReplayMatchesMaterialized(t *testing.T) {
	spec := workload.PoolSpec{
		Name: "stream-sim", Zone: "z1", Hosts: 32, TargetUtil: 0.65,
		Duration: 3 * simtime.Day, Prefill: 2 * simtime.Day,
		Seed: 11, Diurnal: 0.3,
	}
	tr, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	policies := []struct {
		name string
		mk   func() scheduler.Policy
	}{
		{"wastemin", func() scheduler.Policy { return scheduler.NewWasteMin() }},
		{"nilas", func() scheduler.Policy { return scheduler.NewNILAS(model.Oracle{}, time.Minute) }},
		{"lava", func() scheduler.Policy { return scheduler.NewLAVA(model.Oracle{}, time.Minute) }},
		{"nilas-epoch", func() scheduler.Policy {
			return scheduler.NewNILASEpoch(model.Oracle{}, time.Minute, scheduler.DefaultEpoch)
		}},
	}
	for _, pc := range policies {
		t.Run(pc.name, func(t *testing.T) {
			want, err := Run(Config{Trace: tr, Policy: pc.mk()})
			if err != nil {
				t.Fatal(err)
			}
			g, err := workload.Stream(spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(Config{Trace: g.Meta(), Source: g, Policy: pc.mk()})
			if err != nil {
				t.Fatal(err)
			}
			if got.Placements != want.Placements || got.Exits != want.Exits ||
				got.Failed != want.Failed || got.ModelCalls != want.ModelCalls {
				t.Errorf("counts diverge: streamed {p=%d e=%d f=%d mc=%d}, materialized {p=%d e=%d f=%d mc=%d}",
					got.Placements, got.Exits, got.Failed, got.ModelCalls,
					want.Placements, want.Exits, want.Failed, want.ModelCalls)
			}
			if got.AvgEmptyHostFrac != want.AvgEmptyHostFrac ||
				got.AvgEmptyToFree != want.AvgEmptyToFree ||
				got.AvgPackingDensity != want.AvgPackingDensity ||
				got.AvgCPUUtil != want.AvgCPUUtil {
				t.Errorf("aggregates diverge: streamed %+v, materialized %+v", got, want)
			}
			if !reflect.DeepEqual(got.Series, want.Series) {
				t.Errorf("sample series diverge (streamed %d samples, materialized %d)",
					got.Series.Len(), want.Series.Len())
			}
		})
	}
}

// TestStreamedSourceAlsoMaterializedTrace: passing both a fully
// materialized Trace and a Source must replay the Source, not the records
// — the contract the mega cells rely on (their Trace is geometry-only).
func TestStreamedReplayIgnoresResidentRecords(t *testing.T) {
	spec := workload.PoolSpec{
		Name: "stream-geom", Zone: "z1", Hosts: 24, TargetUtil: 0.6,
		Duration: 2 * simtime.Day, Seed: 3,
	}
	tr, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(Config{Trace: tr, Policy: scheduler.NewWasteMin()})
	if err != nil {
		t.Fatal(err)
	}
	// Same geometry, but the records flow only through the stream.
	g, err := workload.Stream(spec)
	if err != nil {
		t.Fatal(err)
	}
	meta := g.Meta()
	if len(meta.Records) != 0 {
		t.Fatalf("stream meta carries %d materialized records", len(meta.Records))
	}
	got, err := Run(Config{Trace: meta, Source: g, Policy: scheduler.NewWasteMin()})
	if err != nil {
		t.Fatal(err)
	}
	if got.Placements != want.Placements || got.Exits != want.Exits || got.Failed != want.Failed {
		t.Fatalf("geometry-only streamed run diverges: {p=%d e=%d f=%d} vs {p=%d e=%d f=%d}",
			got.Placements, got.Exits, got.Failed, want.Placements, want.Exits, want.Failed)
	}
}

// TestRunRefusesSourceOutOfOrder: a Config.Source that steps back in time
// must fail the run naming the VM, not have its arrival clamped to the
// machine's clock and replayed as if it were on time. The refusal must
// show whether or not a live VM outlives the horizon: with one, the exits
// still pending when the bad record arrives lie past the trace's end, where
// Run stops reading events.
func TestRunRefusesSourceOutOfOrder(t *testing.T) {
	for _, outlive := range []bool{false, true} {
		g, err := workload.Stream(workload.PoolSpec{Name: "back", Zone: "z1", Hosts: 8, TargetUtil: 0.6, Duration: simtime.Day, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		recs, err := trace.Collect(g)
		if err != nil {
			t.Fatal(err)
		}
		if outlive {
			recs[0].Lifetime = 30 * simtime.Day
		}
		k := len(recs) / 2
		recs[k].Arrival = recs[k-1].Arrival - time.Minute
		_, err = Run(Config{Trace: g.Meta(), Source: &backStream{recs: recs}, Policy: scheduler.NewWasteMin()})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("vm %d ", recs[k].ID)) {
			t.Fatalf("outlive %v: Run = %v, want an error naming vm %d", outlive, err, recs[k].ID)
		}
	}
}

// backStream replays recs as given, in whatever order.
type backStream struct{ recs []trace.Record }

func (s *backStream) Next() (trace.Record, bool) {
	if len(s.recs) == 0 {
		return trace.Record{}, false
	}
	r := s.recs[0]
	s.recs = s.recs[1:]
	return r, true
}

func (s *backStream) Err() error { return nil }
