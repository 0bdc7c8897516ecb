package cell

import (
	"hash/fnv"
	"testing"

	"lava/internal/features"
	"lava/internal/trace"
)

// FuzzRouteHash: the feature-hash router's hash is FNV-1a-64 of the
// feature tuple's String(), for any strings — '=' and spaces, which the
// form itself uses as separators, and bytes outside ASCII or UTF-8 — and
// Route starts its probe at that hash modulo the cell count.
func FuzzRouteHash(f *testing.F) {
	f.Add("z1", "c2-standard-8", "batch", "m-7", "prod", true, false, false, uint8(3))
	f.Add("a=b", "two words", "cat= x", " ", "", false, true, true, uint8(5))
	f.Add("zürich", "形状", "\xff\xfe", "%s%d", "\n\t\"", true, true, true, uint8(1))
	f.Fuzz(func(t *testing.T, zone, shape, cat, meta, prio string, ssd, spot, adm bool, cells uint8) {
		feat := features.Features{Zone: zone, VMShape: shape, VMCategory: cat, MetadataID: meta, Priority: prio,
			HasSSD: ssd, Spot: spot, AdmissionPolicy: adm}
		h := fnv.New64a()
		h.Write([]byte(feat.String()))
		want := h.Sum64()
		if got := featureHash(&feat); got != want {
			t.Fatalf("featureHash(%q) = %#x, FNV-1a-64 of String() %#x", feat.String(), got, want)
		}
		n := int(cells%8) + 1
		l, err := NewLedger("feature-hash", SplitHosts(8*n, n))
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.Record{ID: 1, Feat: feat}
		if got := l.Route(&rec); got != int(want%uint64(n)) {
			t.Fatalf("Route over %d cells = %d, want %d", n, got, want%uint64(n))
		}
	})
}

// TestFeatureHashRouteAllocs: a feature-hash Route allocates nothing, the
// exit that releases it included, once the ledger's map has room.
func TestFeatureHashRouteAllocs(t *testing.T) {
	l, rec := featureHashLedger(t)
	if got := testing.AllocsPerRun(200, func() {
		l.Route(rec)
		l.Exit(rec.ID)
	}); got != 0 {
		t.Fatalf("feature-hash Route + Exit: %.1f allocs per call, want 0", got)
	}
}

// featureHashLedger is a 4-cell feature-hash ledger and a record with a
// full feature tuple.
func featureHashLedger(tb testing.TB) (*Ledger, *trace.Record) {
	l, err := NewLedger("feature-hash", SplitHosts(64, 4))
	if err != nil {
		tb.Fatal(err)
	}
	return l, &trace.Record{ID: 7, Feat: features.Features{Zone: "z1", VMShape: "c2-standard-8",
		VMCategory: "batch", MetadataID: "meta-000123", Priority: "prod", HasSSD: true, CPUMilli: 8000, MemoryMB: 32768}}
}

// BenchmarkFeatureHashRoute is the row of the feature-hash router: one
// Route and the Exit that releases it.
func BenchmarkFeatureHashRoute(b *testing.B) {
	l, rec := featureHashLedger(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Route(rec)
		l.Exit(rec.ID)
	}
}
