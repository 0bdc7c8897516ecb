package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/scheduler"
	"lava/internal/trace"
)

// The memo table is gone (DESIGN.md, serving point 6); these tests pin what
// is left of its surface: Memoize forwards, Config.Memo changes no decision,
// /stats has a memo block only for a config that sets Memo — every call a
// miss, which is what bench/ needs to print its rows — and an old document's
// block still decodes.

// checkForwards compares memo against raw on every record of tr at a few
// uptimes; it reports with t.Errorf so it may run off the test goroutine.
func checkForwards(t *testing.T, tr *trace.Trace, memo, raw model.Predictor) {
	for i := range tr.Records {
		rec := &tr.Records[i]
		vm := &cluster.VM{ID: rec.ID, Shape: rec.Shape, Feat: rec.Feat, TrueLifetime: rec.Lifetime}
		for _, up := range []time.Duration{0, time.Nanosecond, time.Hour, 30 * 24 * time.Hour} {
			if got, want := memo.PredictRemaining(vm, up), raw.PredictRemaining(vm, up); got != want {
				t.Errorf("vm %d at uptime %v: wrapped prediction %v != raw %v", rec.ID, up, got, want)
				return
			}
		}
	}
}

// TestMemoPredictorTransparent checks value equality against the raw
// predictor, and that a server configured with Memo drains to the same bytes
// as one without.
func TestMemoPredictorTransparent(t *testing.T) {
	tr := smallTrace(t, 8, 2, 3)
	raw, err := model.TrainDistTable(tr.Records)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 2} {
		memo := Memoize(raw, n)
		checkForwards(t, tr, memo, raw)
		if memo.Name() != raw.Name() {
			t.Errorf("Memoize(p, %d) is named %q, want the wrapped %q", n, memo.Name(), raw.Name())
		}
	}

	drain := func(withMemo bool) []byte {
		cfg := FromTrace(tr)
		cfg.Policy = scheduler.NewLAVA(raw, time.Minute)
		if withMemo {
			memo := Memoize(raw, 0)
			cfg.Policy, cfg.Memo = scheduler.NewLAVA(memo, time.Minute), memo
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		if _, err := (&Client{Base: hs.URL}).Replay(context.Background(), tr, ReplayOptions{Concurrency: 4, SkipDrain: true}); err != nil {
			t.Fatal(err)
		}
		var st Stats
		if err := json.Unmarshal(wireDo(t, http.MethodGet, hs.URL+"/stats", ""), &st); err != nil {
			t.Fatal(err)
		}
		switch {
		case !withMemo && st.Memo != nil:
			t.Errorf("/stats of a config without Memo has a memo block: %+v", st.Memo)
		case withMemo && (st.Memo == nil || st.Memo.Hits != 0 || st.Memo.Entries != 0 || st.Memo.Misses == 0):
			t.Errorf("/stats memo block = %+v, want every forwarded call a miss", st.Memo)
		}
		return wireDo(t, http.MethodPost, hs.URL+"/drain", "")
	}
	if with, without := drain(true), drain(false); string(with) != string(without) {
		t.Fatalf("/drain differs with Config.Memo set:\n with    %s\n without %s", with, without)
	}
}

// TestMemoConcurrentIdenticalKey shares one wrapper between 8 goroutines
// asking the same questions at once (run under -race): every answer is the
// wrapped predictor's.
func TestMemoConcurrentIdenticalKey(t *testing.T) {
	tr := smallTrace(t, 8, 2, 3)
	raw, err := model.TrainDistTable(tr.Records)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 2} {
		memo := Memoize(raw, n)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				checkForwards(t, tr, memo, raw)
			}()
		}
		wg.Wait()
	}
}

// TestMemoEvictionKeepsInFlightEntries: a maxEntries smaller than the key
// set is ignored like any other, and a /stats document stored while there
// was a table still decodes.
func TestMemoEvictionKeepsInFlightEntries(t *testing.T) {
	tr := smallTrace(t, 8, 2, 3)
	raw, err := model.TrainDistTable(tr.Records)
	if err != nil {
		t.Fatal(err)
	}
	memo := Memoize(raw, 2)
	for pass := 0; pass < 2; pass++ {
		checkForwards(t, tr, memo, raw)
	}

	const stored = `{"pool":"p","policy":"lava","hosts":4,"memo":{"hits":7,"misses":93,"entries":93},"cell_stats":[{"pool":"p/cell-0","memo":{"hits":1,"misses":2,"entries":2}}]}`
	var st Stats
	if err := json.Unmarshal([]byte(stored), &st); err != nil {
		t.Fatalf("a /stats document with a memo block no longer decodes: %v", err)
	}
	if st.Memo == nil || *st.Memo != (MemoStats{Hits: 7, Misses: 93, Entries: 93}) || st.CellStats[0].Memo.Misses != 2 {
		t.Fatalf("memo block decoded to %+v", st.Memo)
	}
}
