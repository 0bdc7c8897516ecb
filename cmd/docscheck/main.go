// Command docscheck is the documentation gate: it reads every Go package of
// the module at root and of the modules nested one level below it (bench/)
// through `go list` and go/types, and fails (exit 1, one line per offender
// on stdout) unless at least one non-test file in the package carries a
// godoc package comment. It is a dependency-free stand-in for staticcheck's
// ST1000, extended to main packages, so `go doc` always has something to
// say about every layer.
//
// The public `lava` facade (the root package) is held to a stricter bar:
// every exported identifier — functions, methods on exported types, types,
// and each exported const/var (or its declaration group) — must carry a doc
// comment, so the quickstart surface godoc users see is fully documented.
//
// Test references must resolve: every Test…, Fuzz… or Benchmark… token in
// README.md, DESIGN.md, a package doc.go, the CI workflow or the verify skill
// must name a function declared in some package's _test.go file, so a
// deleted or renamed test cannot stay cited. Path references must resolve
// too: every internal/… path in README.md, DESIGN.md, the CI workflow or the
// verify skill, less trailing punctuation and a trailing /..., must name a
// file or directory under root, so a deleted package cannot stay cited.
//
// No package without a caller: every package under internal/ must be
// imported by non-test code of the module or of bench/.
//
// No code without a caller: every exported name declared in non-test code
// under internal/ must be used by non-test code of the module or of bench/,
// be a method of a type the root package's exported API reaches, be an
// interface or String/Error/Unwrap/Is/As/Marshal…/Unmarshal… method, or be kept
// with a reason in docscheck-keep.txt, whose every entry must still be
// needed; names only bench/ calls are printed and fail nothing.
//
// One writer of a host's availability: no non-test code outside
// internal/sim may assign cluster.Host's Unavailable field. Hosts leave and
// return to service through sim.Control's reference-counted Withdraw and
// Restore.
//
// The command is cli.Docscheck; TestDocscheck in internal/cli runs it on
// the module root with the rest of `go test ./...`.
//
// Usage:
//
//	docscheck [root]    # root defaults to "."
package main

import (
	"context"
	"os"

	"lava/internal/cli"
)

func main() {
	os.Exit(cli.Docscheck(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}
