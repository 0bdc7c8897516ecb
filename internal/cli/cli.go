package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"lava/internal/serve"
)

// newFlagSet returns an empty flag set for the named command that prints
// its errors and usage to stderr.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// run parses args into fs and, if that succeeds, runs body. It returns the
// command's exit status: 0 on success and on -h, 2 on a bad flag (fs has
// printed why and the usage), 1 when body fails, after one line on stderr
// prefixed with the command's name.
func run(fs *flag.FlagSet, args []string, stderr io.Writer, body func() error) int {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := body(); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
		return 1
	}
	return 0
}

// negative refuses a numeric flag set below zero, naming the flag. The
// commands check such flags before they read a trace or open a listener.
func negative[T int | time.Duration](name string, v T) error {
	if v < 0 {
		return fmt.Errorf("-%s %v is negative", name, v)
	}
	return nil
}

// checkTrees refuses a -trees below one: gbdt.Train would quietly train its
// own default of 200 trees instead.
func checkTrees(trees int) error {
	if trees < 1 {
		return fmt.Errorf("-trees %d: a GBDT needs at least one tree", trees)
	}
	return nil
}

// writeOut is how every command writes a file: write fills path or, for
// "-", stdout. A file that could not be written completely or closed is an
// error.
func writeOut(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeFinal emits a drain report as canonical JSON, to path or, for "-",
// to stdout. lavaload writes what the daemon's /drain answered and lavasim
// what the offline run of the same stream computes, so the two files diff
// byte for byte.
func writeFinal(path string, stdout io.Writer, ff *serve.DrainResponse) error {
	return writeOut(path, stdout, func(w io.Writer) error { return json.NewEncoder(w).Encode(ff) })
}
