// Package cli holds the repository's seven commands as functions: Lavad
// (the online placement daemon), Lavaload (the replay client), Lavasim (the
// offline simulator), Experiments (the paper's tables and figures),
// Trainmodel (the Table 4 model comparison), Tracegen (synthetic traces)
// and Docscheck (the documentation gate). Each takes its arguments and
// output streams and returns an exit status — 0 on success and on -h, 2 on
// a bad flag, 1 when the run fails, with one line on stderr saying why —
// and has its own flag set, so every cmd/ main is one line and a test can
// run the commands in one process. Every file a command writes goes
// through writeOut, which takes "-" for stdout and reports a failed Close.
//
// That is what TestCLIParity does: for each online≡offline recipe it starts
// Lavad on a loopback port, replays the trace with Lavaload -final-out,
// stops the daemon, runs Lavasim -final-out on the same trace and requires
// the two drain reports to be the same bytes. Both sides write them through
// the one canonical writer here, writeFinal. TestExperimentsCLI holds the
// flag plumbing of Experiments that internal/experiments' own tests skip,
// and TestDocscheck runs the documentation gate on the module root.
package cli
