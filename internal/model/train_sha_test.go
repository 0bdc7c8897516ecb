package model

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"lava/internal/model/gbdt"
	"lava/internal/simtime"
	"lava/internal/trace"
	"lava/internal/workload"
)

// updateTrainSHA rewrites testdata/train_sha256.txt from the trainer in the
// tree. The file pins the model bytes of a known-good commit (b307e55, the
// column-wise trainer): regenerate it only when a change is meant to move
// every golden.
var updateTrainSHA = flag.Bool("update-train-sha", false, "rewrite testdata/train_sha256.txt")

const trainSHAFile = "testdata/train_sha256.txt"

// trainSHAParams are the three fits pinned per trace: the benchmark's, one
// with every knob off its default at the widest histogram, and one coarse
// fit whose leaves are large.
var trainSHAParams = []gbdt.Params{
	{Trees: 100},
	{Trees: 30, MaxLeaves: 8, MinLeafSamples: 5, Bins: 256},
	{Trees: 20, Bins: 16, MinLeafSamples: 200},
}

// replayGBDTTrace generates the trace of the replay-gbdt benchmark workload:
// 96 hosts x (3+7) days, ~7k records, ~57k training examples.
func replayGBDTTrace(t testing.TB, seed int64) *trace.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.PoolSpec{Name: "replay-gbdt", Zone: "zone-a", Hosts: 96,
		TargetUtil: 0.65, Prefill: 3 * simtime.Day, Duration: 7 * simtime.Day, Diurnal: 0.3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// trainSHALines trains on the replay-gbdt trace (96 hosts x 10 days) of each
// seed and returns one "seed params sha256(Save)" line per fit.
func trainSHALines(t *testing.T, seeds []int64) []string {
	t.Helper()
	var lines []string
	for _, seed := range seeds {
		tr := replayGBDTTrace(t, seed)
		for _, p := range trainSHAParams {
			g, err := TrainGBDT(tr.Records, p)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := g.Save(&buf); err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("seed=%d trees=%d leaves=%d minleaf=%d bins=%d %x",
				seed, p.Trees, p.MaxLeaves, p.MinLeafSamples, p.Bins, sha256.Sum256(buf.Bytes())))
		}
	}
	return lines
}

// TestTrainSHA256 holds TrainGBDT to the model bytes of the commit the file
// was captured on, so the trainer and the reference trainer of the gbdt
// tests cannot drift together. Every fit runs at GOMAXPROCS 1 and 2: the
// bytes may not depend on the processor count.
func TestTrainSHA256(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if *updateTrainSHA {
		doc := strings.Join(trainSHALines(t, seeds), "\n") + "\n"
		if err := os.WriteFile(trainSHAFile, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(trainSHAFile)
	if err != nil {
		t.Fatalf("pins missing (capture with -update-train-sha on a known-good tree): %v", err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(seeds)*len(trainSHAParams) {
		t.Fatalf("%s has %d lines, want %d", trainSHAFile, len(want), len(seeds)*len(trainSHAParams))
	}
	if testing.Short() || raceEnabled { // the fits are sequential: ~8x slower under the detector, for nothing
		seeds = seeds[:1]
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for i, got := range trainSHALines(t, seeds) {
			if got != want[i] {
				t.Errorf("GOMAXPROCS=%d:\n got %s\nwant %s", procs, got, want[i])
			}
		}
	}
}

var sinkGBDT *GBDTPredictor

// BenchmarkTrainGBDT is the fit one replay-gbdt round pays in its set-up:
// examples, encoder, matrix and a 100-tree forest.
func BenchmarkTrainGBDT(b *testing.B) {
	tr := replayGBDTTrace(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := TrainGBDT(tr.Records, gbdt.Params{Trees: 100})
		if err != nil {
			b.Fatal(err)
		}
		sinkGBDT = g
	}
}
