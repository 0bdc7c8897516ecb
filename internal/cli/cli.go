package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

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

// writeFinal emits a drain report as canonical JSON, to path or, for "-",
// to stdout. lavaload writes what the daemon's /drain answered and lavasim
// what the offline run of the same stream computes, so the two files diff
// byte for byte.
func writeFinal(path string, stdout io.Writer, ff *serve.DrainResponse) error {
	data, err := json.Marshal(ff)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
