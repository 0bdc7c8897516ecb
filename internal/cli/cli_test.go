package cli

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lava/internal/ptrace"
	"lava/internal/trace"
)

// command is the shape of every command in this package.
type command func(ctx context.Context, args []string, stdout, stderr io.Writer) int

// writeParityTrace generates the trace `tracegen -hosts 24 -days 2 -prefill
// 2 -seed 5` writes, applies edit to it, and writes it to dir/name.
func writeParityTrace(t *testing.T, dir, name string, edit func(*trace.Trace)) string {
	t.Helper()
	var out, stderr bytes.Buffer
	if code := Tracegen(context.Background(), strings.Fields("-hosts 24 -days 2 -prefill 2 -seed 5"), &out, &stderr); code != 0 {
		t.Fatalf("tracegen exited %d: %s", code, stderr.String())
	}
	tr, err := trace.Read(&out)
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
	const gbdtFleet = "-model gbdt -trees 5 -cells 3 -router feature-hash"
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
		// The paper's model: both commands train the same 5-tree forest.
		{"gbdt-single-server", plain, "-model gbdt -trees 5", "", "-model gbdt -trees 5", `"model_calls"`},
		{"gbdt-fleet", plain, gbdtFleet, "", gbdtFleet, `"model_calls"`},
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
// sent or any report printed — lavaload's rows point at a server that
// counts what it receives, lavad's must return on its own instead of
// serving, and experiments' must refuse before the first experiment runs.
func TestCLIRefusals(t *testing.T) {
	dir := t.TempDir()
	good := writeParityTrace(t, dir, "good.jsonl", func(*trace.Trace) {})
	dup := writeParityTrace(t, dir, "dup.jsonl", func(tr *trace.Trace) { tr.Records[1].ID = tr.Records[0].ID })
	out := filepath.Join(dir, "out")
	// A flag refused before the trace is read names the flag, not this file.
	missing := filepath.Join(dir, "missing.jsonl")
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
		{"lavad -admit negative refill", Lavad,
			[]string{"-trace", good, "-addr", "127.0.0.1:0", "-admit", "standard=-5/1m"}, "standard=-5/1m"},
		{"lavad -cells negative", Lavad,
			[]string{"-trace", good, "-addr", "127.0.0.1:0", "-cells", "-3"}, "-cells"},
		{"lavasim -model-file with -model dist", Lavasim,
			[]string{"-trace", good, "-model", "dist", "-model-file", filepath.Join(dir, "missing.json")}, "-model-file"},
		{"lavasim -model-file with -model km", Lavasim,
			[]string{"-trace", good, "-model", "km", "-model-file", filepath.Join(dir, "missing.json")}, "-model-file"},
		{"lavasim -cells negative", Lavasim,
			[]string{"-trace", good, "-cells", "-3"}, "-cells"},
		{"lavasim -cells 0 under -scenario", Lavasim,
			[]string{"-trace", good, "-scenario", "drain-wave", "-cells", "0"}, "-cells"},
		{"lavaload -concurrency negative", Lavaload,
			[]string{"-trace", good, "-addr", hs.URL, "-concurrency", "-2"}, "-concurrency"},
		{"lavaload -concurrency 0", Lavaload,
			[]string{"-trace", good, "-addr", hs.URL, "-concurrency", "0"}, "-concurrency"},
		{"lavaload -qps NaN", Lavaload,
			[]string{"-trace", good, "-addr", hs.URL, "-qps", "NaN"}, "-qps"},
		{"lavaload -qps negative", Lavaload,
			[]string{"-trace", good, "-addr", hs.URL, "-qps", "-5"}, "-qps"},
		{"lavaload -qps infinite", Lavaload,
			[]string{"-trace", good, "-addr", hs.URL, "-qps", "+Inf"}, "-qps"},
		{"lavaload duplicate vm id", Lavaload,
			[]string{"-trace", dup, "-addr", hs.URL}, "duplicate vm id"},
		{"experiments -counterfactual with one policy", Experiments,
			[]string{"-counterfactual", "lava"}, "-counterfactual"},
		{"experiments -exp bogus", Experiments,
			[]string{"-exp", "bogus"}, "bogus"},
		{"experiments -scale below range", Experiments,
			[]string{"-exp", "table3", "-scale", "-1"}, "-scale"},
		{"experiments -scale above range", Experiments,
			[]string{"-exp", "table3", "-scale", "3"}, "-scale"},
		{"experiments -cells negative", Experiments,
			[]string{"-exp", "table3", "-cells", "-3"}, "-cells"},
		{"tracegen -diurnal above range", Tracegen,
			[]string{"-hosts", "2", "-days", "1", "-prefill", "0", "-diurnal", "5"}, "Diurnal"},
		{"tracegen -diurnal negative", Tracegen,
			[]string{"-hosts", "2", "-days", "1", "-prefill", "0", "-diurnal", "-2"}, "Diurnal"},
		{"tracegen -diurnal 1", Tracegen,
			[]string{"-hosts", "2", "-days", "1", "-prefill", "0", "-diurnal", "1"}, "Diurnal"},
		{"tracegen -diurnal NaN", Tracegen,
			[]string{"-hosts", "2", "-days", "1", "-prefill", "0", "-diurnal", "NaN"}, "Diurnal"},
		{"tracegen -prefill negative", Tracegen,
			[]string{"-hosts", "2", "-days", "1", "-prefill", "-1"}, "Prefill"},
		{"tracegen -days overflows", Tracegen,
			[]string{"-hosts", "2", "-days", "213504", "-prefill", "0"}, "-days"},
		{"tracegen -prefill overflows", Tracegen,
			[]string{"-hosts", "2", "-days", "1", "-prefill", "106752"}, "-prefill"},
		{"trainmodel -test negative", Trainmodel,
			[]string{"-trace", good, "-test", "-1"}, "-test"},
		{"trainmodel -test above range", Trainmodel,
			[]string{"-trace", good, "-test", "1.5"}, "-test"},
		{"trainmodel -test NaN", Trainmodel,
			[]string{"-trace", good, "-test", "NaN"}, "-test"},
		{"experiments -scale NaN", Experiments,
			[]string{"-exp", "table3", "-scale", "NaN"}, "-scale"},
		{"experiments -trace-k negative", Experiments,
			[]string{"-exp", "table3", "-trace-k", "-3"}, "-trace-k"},
		{"experiments -parallel negative", Experiments,
			[]string{"-exp", "table3", "-parallel", "-2"}, "-parallel"},
		{"lavasim -trees 0", Lavasim,
			[]string{"-trace", missing, "-trees", "0"}, "-trees"},
		{"lavad -trees 0", Lavad,
			[]string{"-trace", missing, "-addr", "127.0.0.1:0", "-trees", "0"}, "-trees"},
		{"trainmodel -trees 0", Trainmodel,
			[]string{"-trace", missing, "-trees", "0"}, "-trees"},
		{"lavad -trace-k negative", Lavad,
			[]string{"-trace", missing, "-addr", "127.0.0.1:0", "-trace-k", "-2"}, "-trace-k"},
		{"lavad -trace-buf below -1", Lavad,
			[]string{"-trace", missing, "-addr", "127.0.0.1:0", "-trace-k", "3", "-trace-buf", "-5"}, "-trace-buf"},
		{"lavad -trace-buf without -trace-k", Lavad,
			[]string{"-trace", missing, "-addr", "127.0.0.1:0", "-trace-buf", "100"}, "-trace-buf"},
		{"lavad -trace-out without -trace-k", Lavad,
			[]string{"-trace", missing, "-addr", "127.0.0.1:0", "-trace-out", out}, "-trace-out"},
		{"lavasim -defrag with -cells", Lavasim,
			[]string{"-trace", missing, "-cells", "2", "-defrag"}, "-defrag"},
		{"lavaload -timeout negative", Lavaload,
			[]string{"-trace", good, "-addr", hs.URL, "-timeout", "-1s"}, "-timeout"},
	} {
		t.Run(row.name, func(t *testing.T) {
			requests.Store(0)
			// A daemon that serves instead of refusing returns 0 here.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var stdout, stderr bytes.Buffer
			code := row.cmd(ctx, row.args, &stdout, &stderr)
			lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
			last := lines[len(lines)-1]
			if code != 1 || !strings.Contains(last, row.want) {
				t.Fatalf("exit %d, stderr:\n%s\nwant exit 1 and a last line naming %s", code, stderr.String(), row.want)
			}
			if n := requests.Load(); n != 0 {
				t.Fatalf("%d requests sent before the refusal", n)
			}
			if stdout.Len() != 0 {
				t.Fatalf("refused run printed:\n%s", stdout.String())
			}
		})
	}
}

// TestCLIExitStatus pins the exit-status contract of every command: 0 for
// -h, 2 for an unknown flag, 1 for a run that cannot start. lavad's help
// names the scenarios -scenario takes.
func TestCLIExitStatus(t *testing.T) {
	type row struct {
		args []string
		want int
	}
	usage := []row{{[]string{"-h"}, 0}, {[]string{"-no-such-flag"}, 2}}
	needsTrace := append(usage, row{nil, 1}) // -trace is required
	for name, c := range map[string]struct {
		cmd  command
		rows []row
	}{
		"lavad": {Lavad, needsTrace}, "lavaload": {Lavaload, needsTrace}, "lavasim": {Lavasim, needsTrace},
		"trainmodel": {Trainmodel, needsTrace}, "experiments": {Experiments, usage},
		"tracegen": {Tracegen, usage}, "docscheck": {Docscheck, usage},
		"benchjudge": {Benchjudge, append(usage, row{nil, 1})}, // two run files are required
	} {
		for _, row := range c.rows {
			var stderr bytes.Buffer
			if got := c.cmd(context.Background(), row.args, io.Discard, &stderr); got != row.want {
				t.Errorf("%s %v: exit %d, want %d; stderr:\n%s", name, row.args, got, row.want, stderr.String())
			}
			if name == "lavad" && row.want == 0 && !strings.Contains(stderr.String(), "drain-wave") {
				t.Errorf("lavad -h does not name the scenarios:\n%s", stderr.String())
			}
		}
	}
}

// TestLavasimDefragMigrates: on a pool tight enough for the engine's
// trigger, a 48-host trace at 98 % utilization, lavasim -defrag performs
// migrations, and two runs print the same bytes.
func TestLavasimDefragMigrates(t *testing.T) {
	var tr, stderr bytes.Buffer
	if code := Tracegen(context.Background(), strings.Fields("-hosts 48 -util 0.98 -days 7 -prefill 3"), &tr, &stderr); code != 0 {
		t.Fatalf("tracegen exited %d: %s", code, stderr.String())
	}
	path := filepath.Join(t.TempDir(), "tight.jsonl")
	if err := os.WriteFile(path, tr.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var runs [2]bytes.Buffer
	for i := range runs {
		args := []string{"-trace", path, "-defrag", "-policy", "wastemin", "-model", "oracle"}
		if code := Lavasim(context.Background(), args, &runs[i], &stderr); code != 0 {
			t.Fatalf("lavasim exited %d: %s", code, stderr.String())
		}
	}
	if !bytes.Equal(runs[0].Bytes(), runs[1].Bytes()) {
		t.Fatalf("two runs differ:\n%s\n---\n%s", runs[0].String(), runs[1].String())
	}
	var planned, performed int
	found := false
	for _, line := range strings.Split(runs[0].String(), "\n") {
		if strings.HasPrefix(line, "defrag:") {
			_, err := fmt.Sscanf(line, "defrag: planned %d performed %d", &planned, &performed)
			found = err == nil
		}
	}
	if !found || performed == 0 {
		t.Fatalf("want a defrag line with migrations performed:\n%s", runs[0].String())
	}
	t.Logf("planned %d performed %d", planned, performed)
}

// TestExperimentsCLI holds the flag plumbing of Experiments that the
// library's tests skip: a canonical fig13 document is the same bytes at 1
// and 8 workers, on either engine and with tracing armed; -trace-k and
// -trace-out write the decision streams; -counterfactual exits 0 once both
// parity properties pass; and -trace is not a flag (-trace-k and
// -trace-out arm tracing).
func TestExperimentsCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	dir := t.TempDir()
	a, b, tr := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "traces.json")
	for _, args := range []string{
		"-exp fig13 -scale 0.1 -parallel 1 -canonical -json " + a,
		"-exp fig13 -scale 0.1 -parallel 8 -exhaustive -trace-k 3 -trace-out " + tr + " -canonical -json " + b,
	} {
		var stderr bytes.Buffer
		if code := Experiments(context.Background(), strings.Fields(args), io.Discard, &stderr); code != 0 {
			t.Fatalf("experiments %s: exit %d: %s", args, code, stderr.String())
		}
	}
	docA, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	docB, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(docA, docB) {
		t.Errorf("canonical documents differ:\n--- -parallel 1 ---\n%s\n--- -parallel 8 -exhaustive -trace-k 3 ---\n%s", docA, docB)
	}
	data, err := os.ReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	var doc ptrace.Document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.K != 3 || len(doc.Streams) != 3 {
		t.Fatalf("trace document: k=%d streams=%d, want k=3 with 3 fig13 jobs", doc.K, len(doc.Streams))
	}
	for name, s := range doc.Streams {
		if len(s.Decisions) == 0 {
			t.Errorf("stream %s is empty", name)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := Experiments(context.Background(), strings.Fields("-counterfactual lava,wastemin -scale 0.1"), &stdout, &stderr); code != 0 {
		t.Fatalf("-counterfactual: exit %d: %s", code, stderr.String())
	}
	for _, want := range []string{"self-replay parity:      PASS", "re-simulation agreement: PASS"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-counterfactual report lacks %q:\n%s", want, stdout.String())
		}
	}
	if code := Experiments(context.Background(), []string{"-trace"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("-trace: exit %d, want 2 (unknown flag)", code)
	}
}

// TestDocscheck runs the documentation gate on this module and on fixtures
// that must fail it: a package without a package comment, an undocumented
// identifier of the root (facade) package, a README that cites a test no
// _test.go file declares, a DESIGN that cites a missing path, three tiny
// modules for the caller pass (an unused internal/ export, a keep entry
// whose name gained a caller, one whose name is gone) and an internal/
// package only a test imports, and a command that sets a host's
// Unavailable flag itself. Modules must pass it with a method reached only
// through an anonymous interface assertion, a name only bench/ calls, which
// the run prints, and that flag set inside internal/sim alone.
func TestDocscheck(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Docscheck(context.Background(), []string{"../.."}, &stdout, &stderr); code != 0 {
		t.Fatalf("docscheck on the module: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	const (
		goMod = "module fix\n\ngo 1.24\n"
		pkgA  = "// Package a is a fixture.\npackage a\n\n"
		cmdX  = "// Command x is a fixture.\npackage main\n\nimport \"fix/internal/a\"\n\n"

		hostPkg  = "// Package cluster is a fixture.\npackage cluster\n\n// Host is a host.\ntype Host struct{ Unavailable bool }\n\n// Pool is a pool.\ntype Pool struct{}\n\n// Place places a VM.\nfunc (*Pool) Place() {}\n\n// Reserve holds capacity.\nfunc (*Pool) Reserve() {}\n"
		schedPkg = "// Package scheduler is a fixture.\npackage scheduler\n\n// Policy is a policy.\ntype Policy interface{ OnPlaced() }\n"
		simPkg   = "// Package sim is a fixture.\npackage sim\n\nimport (\n\t\"fix/internal/cluster\"\n\t\"fix/internal/scheduler\"\n)\n\n" +
			"// Withdraw takes h out of service.\nfunc Withdraw(h *cluster.Host) { h.Unavailable = true }\n\n// Place tells p.\nfunc Place(p scheduler.Policy) { p.OnPlaced() }\n\n// Create places a VM on pool and holds capacity there.\nfunc Create(pool *cluster.Pool) {\n\tpool.Place()\n\tpool.Reserve()\n}\n"
		cmdSim = "// Command x is a fixture.\npackage main\n\nimport (\n\t\"fix/internal/cluster\"\n\t\"fix/internal/scheduler\"\n\t\"fix/internal/sim\"\n)\n\n"
	)
	for _, row := range []struct {
		name  string
		files map[string]string
		code  int
		want  string
	}{
		{"no package comment", map[string]string{"go.mod": goMod, "a/a.go": "package a\n"}, 1, "a: package has no package comment"},
		{"undocumented facade identifier", map[string]string{"go.mod": goMod, "lava.go": "// Package lava is the facade.\npackage lava\n\nfunc Exported() {}\n"},
			1, "exported function Exported has no doc comment"},
		{"stale test citation", map[string]string{"go.mod": goMod, "README.md": "See TestNoSuchThing.\n"}, 1, "TestNoSuchThing names no test function"},
		{"stale path citation", map[string]string{"go.mod": goMod, "DESIGN.md": "| `internal/model/km` | Deleted. |\n", "internal/model/doc.go": "// Package model stays.\npackage model\n"},
			1, "internal/model/km names no file or directory"},
		{"unused internal export", map[string]string{"go.mod": goMod, "internal/a/a.go": pkgA + "func Unused() {}\n"},
			1, "internal/a/a.go:4: exported a.Unused has no non-test caller"},
		{"kept name gained a caller", map[string]string{"go.mod": goMod, "internal/a/a.go": pkgA + "func Used() {}\n",
			"cmd/x/main.go": cmdX + "func main() { a.Used() }\n", "docscheck-keep.txt": "a.Used  a test reads it\n"},
			1, "docscheck-keep.txt:1: a.Used has a non-test caller"},
		{"kept name is gone", map[string]string{"go.mod": goMod, "internal/a/a.go": pkgA,
			"docscheck-keep.txt": "# comment\n\na.Gone  a test reads it\n"},
			1, "docscheck-keep.txt:3: a.Gone names no exported internal/ declaration"},
		{"anonymous interface method", map[string]string{"go.mod": goMod,
			"internal/a/a.go": pkgA + "type T struct{}\n\nfunc (T) SetX(int) {}\n\n" +
				"func Use(v any) {\n\tif s, ok := v.(interface{ SetX(int) }); ok {\n\t\ts.SetX(1)\n\t}\n}\n",
			"cmd/x/main.go": cmdX + "func main() { a.Use(a.T{}) }\n"},
			0, ""},
		{"errors-shaped methods", map[string]string{"go.mod": goMod,
			"internal/a/a.go": pkgA + "type E struct{}\n\nfunc (E) Error() string { return \"e\" }\n\nfunc (E) Unwrap() error { return nil }\n\n" +
				"func (E) Is(error) bool { return false }\n\nfunc (E) As(any) bool { return false }\n",
			"cmd/x/main.go": cmdX + "func main() { _ = a.E{} }\n"},
			0, ""},
		{"method on the facade's API", map[string]string{"go.mod": goMod,
			"internal/a/a.go": pkgA + "type T struct{}\n\nfunc (T) Next() *U { return nil }\n\ntype U struct{}\n\nfunc (*U) Reached() {}\n",
			"lava.go":         "// Package lava is the facade.\npackage lava\n\nimport \"fix/internal/a\"\n\n// New returns a T.\nfunc New() a.T { return a.T{} }\n"},
			0, ""},
		{"kept name on the facade's API", map[string]string{"go.mod": goMod,
			"internal/a/a.go":    pkgA + "type T struct{}\n\nfunc (T) Reached() {}\n",
			"lava.go":            "// Package lava is the facade.\npackage lava\n\nimport \"fix/internal/a\"\n\n// T is a's T.\ntype T = a.T\n",
			"docscheck-keep.txt": "a.T.Reached  a test reads it\n"},
			1, "docscheck-keep.txt:1: a.T.Reached has a non-test caller, is on the root package's API"},
		{"orphan package", map[string]string{"go.mod": goMod, "internal/a/a.go": pkgA,
			"internal/b/b.go": "// Package b is a fixture.\npackage b\n", "internal/b/b_test.go": "package b\n\nimport _ \"fix/internal/a\"\n",
			"cmd/x/main.go": "// Command x is a fixture.\npackage main\n\nimport _ \"fix/internal/b\"\n\nfunc main() {}\n"},
			1, "internal/a: package has no non-test importer"},
		{"unavailable set in sim", map[string]string{"go.mod": goMod, "internal/cluster/c.go": hostPkg, "internal/scheduler/p.go": schedPkg, "internal/sim/s.go": simPkg,
			"cmd/x/main.go": cmdSim + "type wrap struct{ scheduler.Policy }\n\nfunc (w wrap) OnPlaced() { w.Policy.OnPlaced() }\n\n" +
				"func main() {\n\tsim.Withdraw(&cluster.Host{})\n\tsim.Place(wrap{})\n\tsim.Create(&cluster.Pool{})\n}\n"},
			0, ""},
		{"unavailable set outside sim", map[string]string{"go.mod": goMod, "internal/cluster/c.go": hostPkg, "internal/scheduler/p.go": schedPkg, "internal/sim/s.go": simPkg,
			"cmd/x/main.go": cmdSim + "func main() {\n\th := &cluster.Host{}\n\tsim.Withdraw(h)\n\th.Unavailable = false\n\tvar p scheduler.Policy\n\tsim.Place(p)\n\tp.OnPlaced()\n\tpool := &cluster.Pool{}\n\tsim.Create(pool)\n\tpool.Place()\n\tpool.Reserve()\n}\n"},
			1, "cmd/x/main.go:13: assigns cluster.Host.Unavailable outside internal/sim\ncmd/x/main.go:16: calls a policy's OnPlaced outside internal/sim and internal/scheduler\ncmd/x/main.go:19: calls cluster.Pool.Place outside internal/sim and internal/cluster\ncmd/x/main.go:20: calls cluster.Pool.Reserve outside internal/sim and internal/cluster"},
		{"bench-only caller", map[string]string{"go.mod": goMod, "internal/a/a.go": pkgA + "func BenchOnly() {}\n",
			"bench/go.mod":  "module fix/bench\n\ngo 1.24\n\nrequire fix v0.0.0\n\nreplace fix => ../\n",
			"bench/main.go": "// Command bench is a fixture.\npackage main\n\nimport \"fix/internal/a\"\n\nfunc main() { a.BenchOnly() }\n"},
			0, "only bench/ calls a.BenchOnly"},
	} {
		t.Run(row.name, func(t *testing.T) {
			root := t.TempDir()
			for name, body := range row.files {
				path := filepath.Join(root, name)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var stdout, stderr bytes.Buffer
			code := Docscheck(context.Background(), []string{root}, &stdout, &stderr)
			missing := slices.ContainsFunc(strings.Split(row.want, "\n"), func(want string) bool { return !strings.Contains(stdout.String(), want) })
			if code != row.code || missing {
				t.Fatalf("exit %d, stdout:\n%s\nstderr:\n%s\nwant exit %d and %q", code, stdout.String(), stderr.String(), row.code, row.want)
			}
		})
	}
}
