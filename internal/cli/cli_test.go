package cli

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lava/internal/simtime"
	"lava/internal/trace"
	"lava/internal/workload"
)

// command is the shape of Lavad, Lavaload and Lavasim.
type command func(ctx context.Context, args []string, stdout, stderr io.Writer) int

// writeParityTrace generates the trace `tracegen -hosts 24 -days 2 -prefill
// 2 -seed 5` writes, applies edit to it, and writes it to dir/name.
func writeParityTrace(t *testing.T, dir, name string, edit func(*trace.Trace)) string {
	t.Helper()
	tr, err := workload.Generate(workload.PoolSpec{
		Name: "pool", Zone: "us-central1-a", Hosts: 24, TargetUtil: 0.65,
		Duration: 2 * simtime.Day, Prefill: 2 * simtime.Day, Seed: 5, Diurnal: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	edit(tr)
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tr.Write(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// daemon is a Lavad running in this process.
type daemon struct {
	addr   string // the host:port it announced
	cancel context.CancelFunc
	exited chan struct{} // closed when Lavad has returned
	code   int           // Lavad's exit status, once exited is closed

	mu     sync.Mutex
	stderr strings.Builder
}

// startLavad runs Lavad with args on a free loopback port and waits for it
// to announce the address it bound.
func startLavad(t *testing.T, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{cancel: cancel, exited: make(chan struct{})}
	t.Cleanup(func() { d.stop() })
	pr, pw := io.Pipe()
	go func() {
		d.code = Lavad(ctx, append(args, "-addr", "127.0.0.1:0"), io.Discard, pw)
		pw.Close()
		close(d.exited)
	}()
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			d.mu.Lock()
			d.stderr.WriteString(sc.Text() + "\n")
			d.mu.Unlock()
			if a, ok := strings.CutPrefix(sc.Text(), "lavad: listening on http://"); ok {
				addr <- a
			}
		}
	}()
	select {
	case d.addr = <-addr:
		return d
	case <-d.exited:
		t.Fatalf("lavad exited %d before listening:\n%s", d.code, d.log())
		return nil
	}
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// stop cancels the daemon's context and returns its exit status.
func (d *daemon) stop() int {
	d.cancel()
	<-d.exited
	return d.code
}

// TestCLIParity is the online≡offline contract at the command line: for
// each row, lavad serves the trace, lavaload replays it at concurrency 8
// and writes the drain report, and lavasim's offline run of the same
// stream must write the same bytes. The rows cover both shapes of the
// service — a fleet under three catalog scenarios, the stateful router, a
// horizon-less trace, per-class admission of a labeled stream — and a
// single server.
func TestCLIParity(t *testing.T) {
	dir := t.TempDir()
	plain := writeParityTrace(t, dir, "parity.jsonl", func(*trace.Trace) {})
	noHorizon := writeParityTrace(t, dir, "parity-nohorizon.jsonl", func(tr *trace.Trace) { tr.Horizon = 0 })
	const fleet = "-model dist -cells 3 -router feature-hash"
	for _, row := range []struct {
		name, trace              string
		lavad, lavaload, lavasim string // each command's flags besides -trace, -addr and -final-out
		want                     string // what the report must carry
	}{
		{"surge", plain, fleet + " -scenario surge -seed 7", "-scenario surge -seed 7", fleet + " -scenario surge -seed 7", `"router":"feature-hash"`},
		{"crunch", plain, fleet + " -scenario crunch -seed 7", "-scenario crunch -seed 7", fleet + " -scenario crunch -seed 7", `"router":"feature-hash"`},
		{"drain-wave", plain, fleet + " -scenario drain-wave -seed 7", "-scenario drain-wave -seed 7", fleet + " -scenario drain-wave -seed 7", `"router":"feature-hash"`},
		{"least-utilized", plain, "-model dist -cells 3 -router least-utilized", "", "-model dist -cells 3 -router least-utilized", `"router":"least-utilized"`},
		{"horizon-less", noHorizon, fleet, "", fleet, `"router":"feature-hash"`},
		{"classed-admission", plain,
			fleet + " -admit besteffort=1/6h:2",
			"-class-mix latency=2,standard=6,besteffort=2 -seed 7",
			fleet + " -admit besteffort=1/6h:2 -class-mix latency=2,standard=6,besteffort=2 -seed 7", `"rejected"`},
		{"single-server", plain, "-model dist", "", "-model dist", `"series_len"`},
	} {
		t.Run(row.name, func(t *testing.T) {
			online := filepath.Join(dir, row.name+"-online.json")
			offline := filepath.Join(dir, row.name+"-offline.json")
			d := startLavad(t, append([]string{"-trace", row.trace}, strings.Fields(row.lavad)...)...)
			var stderr bytes.Buffer
			args := append([]string{"-trace", row.trace, "-addr", "http://" + d.addr, "-concurrency", "8", "-final-out", online}, strings.Fields(row.lavaload)...)
			if code := Lavaload(context.Background(), args, io.Discard, &stderr); code != 0 {
				t.Fatalf("lavaload exited %d: %s", code, stderr.String())
			}
			if code := d.stop(); code != 0 {
				t.Fatalf("lavad exited %d:\n%s", code, d.log())
			}
			args = append([]string{"-trace", row.trace, "-final-out", offline}, strings.Fields(row.lavasim)...)
			if code := Lavasim(context.Background(), args, io.Discard, &stderr); code != 0 {
				t.Fatalf("lavasim exited %d: %s", code, stderr.String())
			}
			on, err := os.ReadFile(online)
			if err != nil {
				t.Fatal(err)
			}
			off, err := os.ReadFile(offline)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(on, off) {
				t.Fatalf("online and offline drain reports differ:\n online: %s\noffline: %s", on, off)
			}
			if !bytes.Contains(on, []byte(row.want)) {
				t.Fatalf("drain report lacks %s: %s", row.want, on)
			}
		})
	}
}

// TestCLIRefusals: each misuse is refused with exit status 1 and a last
// stderr line naming the flag or record at fault, before any request is
// sent — lavaload's rows point at a server that counts what it receives,
// and lavad's must return on its own instead of serving.
func TestCLIRefusals(t *testing.T) {
	dir := t.TempDir()
	good := writeParityTrace(t, dir, "good.jsonl", func(*trace.Trace) {})
	dup := writeParityTrace(t, dir, "dup.jsonl", func(tr *trace.Trace) { tr.Records[1].ID = tr.Records[0].ID })
	out := filepath.Join(dir, "out")
	var requests atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "counting only", http.StatusServiceUnavailable)
	}))
	defer hs.Close()

	for _, row := range []struct {
		name string
		cmd  command
		args []string
		want string
	}{
		{"lavad -trace-out under -scenario", Lavad,
			[]string{"-trace", good, "-addr", "127.0.0.1:0", "-trace-k", "3", "-trace-out", out, "-scenario", "surge"}, "-trace-out"},
		{"lavaload -final-out with -no-drain", Lavaload,
			[]string{"-trace", good, "-addr", hs.URL, "-no-drain", "-final-out", out}, "-final-out"},
		{"lavad -router bogus", Lavad,
			[]string{"-trace", good, "-addr", "127.0.0.1:0", "-router", "bogus"}, "-router"},
		{"lavasim -router bogus", Lavasim,
			[]string{"-trace", good, "-router", "bogus"}, "-router"},
		{"lavaload duplicate vm id", Lavaload,
			[]string{"-trace", dup, "-addr", hs.URL}, "duplicate vm id"},
	} {
		t.Run(row.name, func(t *testing.T) {
			requests.Store(0)
			// A daemon that serves instead of refusing returns 0 here.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var stderr bytes.Buffer
			code := row.cmd(ctx, row.args, io.Discard, &stderr)
			lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
			last := lines[len(lines)-1]
			if code != 1 || !strings.Contains(last, row.want) {
				t.Fatalf("exit %d, stderr:\n%s\nwant exit 1 and a last line naming %s", code, stderr.String(), row.want)
			}
			if n := requests.Load(); n != 0 {
				t.Fatalf("%d requests sent before the refusal", n)
			}
		})
	}
}

// TestCLIExitStatus pins the exit-status contract of all three commands:
// 0 for -h, 2 for an unknown flag, 1 for a run that cannot start.
func TestCLIExitStatus(t *testing.T) {
	for name, cmd := range map[string]command{"lavad": Lavad, "lavaload": Lavaload, "lavasim": Lavasim} {
		for _, row := range []struct {
			args []string
			want int
		}{
			{[]string{"-h"}, 0},
			{[]string{"-no-such-flag"}, 2},
			{nil, 1}, // -trace is required
		} {
			var stderr bytes.Buffer
			if got := cmd(context.Background(), row.args, io.Discard, &stderr); got != row.want {
				t.Errorf("%s %v: exit %d, want %d; stderr:\n%s", name, row.args, got, row.want, stderr.String())
			}
		}
	}
}
