package features

import (
	"strings"
	"testing"
)

func examplesFor(categories map[string]struct {
	n     int
	label float64
}) []Example {
	var out []Example
	for cat, spec := range categories {
		for i := 0; i < spec.n; i++ {
			out = append(out, Example{
				F:          Features{VMCategory: cat, Zone: "z", VMShape: "s", MetadataID: "m", Priority: "p"},
				Log10Hours: spec.label,
			})
		}
	}
	return out
}

func TestFitTargetEncoding(t *testing.T) {
	exs := examplesFor(map[string]struct {
		n     int
		label float64
	}{
		"short": {n: 50, label: -1},
		"long":  {n: 50, label: 2},
	})
	e := Fit(exs)
	short := e.Encode(Features{VMCategory: "short"}, 0)
	long := e.Encode(Features{VMCategory: "long"}, 0)
	// Column 2 is VMCategory.
	if short[2] != -1 || long[2] != 2 {
		t.Fatalf("target encoding wrong: short=%v long=%v", short[2], long[2])
	}
}

func TestRareCategoryCollapses(t *testing.T) {
	exs := examplesFor(map[string]struct {
		n     int
		label float64
	}{
		"common": {n: 50, label: 1},
		"rare":   {n: MinCategoryCount - 1, label: 100},
	})
	e := Fit(exs)
	rare := e.Encode(Features{VMCategory: "rare"}, 0)
	unseen := e.Encode(Features{VMCategory: "never-seen"}, 0)
	// Rare categories collapse to the global fallback, identical to unseen.
	if rare[2] != unseen[2] {
		t.Fatalf("rare category not collapsed: %v vs %v", rare[2], unseen[2])
	}
	if got := len(e.Categories(2)); got != 1 {
		t.Fatalf("retained categories = %d, want 1", got)
	}
}

func TestEncodeWidthAndBooleans(t *testing.T) {
	e := Fit(examplesFor(map[string]struct {
		n     int
		label float64
	}{"c": {n: 20, label: 0}}))
	f := Features{HasSSD: true, Spot: false, AdmissionPolicy: true, CPUMilli: 4000, MemoryMB: 2048}
	v := e.Encode(f, -4)
	if len(v) != NumColumns {
		t.Fatalf("encoded width = %d, want %d", len(v), NumColumns)
	}
	if v[5] != 1 || v[6] != 0 || v[7] != 1 {
		t.Fatalf("boolean encoding wrong: %v", v[5:8])
	}
	if v[8] != 4 || v[9] != 2 {
		t.Fatalf("numeric encoding wrong: cpu=%v mem=%v", v[8], v[9])
	}
	if v[10] != -4 {
		t.Fatalf("uptime column = %v, want -4", v[10])
	}
}

func TestFieldNamesMatchWidth(t *testing.T) {
	if len(FieldNames) != NumColumns {
		t.Fatalf("FieldNames has %d entries, NumColumns = %d", len(FieldNames), NumColumns)
	}
}

func TestCategoriesOutOfRange(t *testing.T) {
	e := Fit(nil)
	if e.Categories(-1) != nil || e.Categories(5) != nil {
		t.Fatal("out-of-range Categories must be nil")
	}
}

func TestStringContainsFields(t *testing.T) {
	f := Features{Zone: "zz", VMShape: "shape-8"}
	s := f.String()
	for _, want := range []string{"zz", "shape-8"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() %q missing %q", s, want)
		}
	}
}

func TestAppendEncodeMatchesEncodeWithoutAllocating(t *testing.T) {
	e := Fit(examplesFor(map[string]struct {
		n     int
		label float64
	}{"c": {n: 20, label: 0.5}}))
	f := Features{VMCategory: "c", Zone: "unseen", HasSSD: true, CPUMilli: 4000, MemoryMB: 2048}
	want := e.Encode(f, 1.25)
	var buf [NumColumns + 1]float64
	buf[0] = 7
	got := e.AppendEncode(buf[:1], f, 1.25)
	if len(got) != NumColumns+1 || got[0] != 7 {
		t.Fatalf("AppendEncode must extend dst: %v", got)
	}
	for i, v := range want {
		if got[i+1] != v {
			t.Fatalf("column %d = %v, want %v", i, got[i+1], v)
		}
	}
	if n := testing.AllocsPerRun(100, func() { e.AppendEncode(buf[:0], f, 1.25) }); n != 0 {
		t.Fatalf("AppendEncode into a sized buffer allocates %v times", n)
	}
}
