// Package cli holds the serving commands as functions: Lavad (the online
// placement daemon), Lavaload (the replay client) and Lavasim (the offline
// simulator). Each takes its arguments and output streams and returns an
// exit status — 0 on success and on -h, 2 on a bad flag, 1 when the run
// fails, with one line on stderr saying why — and has its own flag set, so
// cmd/lavad, cmd/lavaload and cmd/lavasim are one-line mains and a test can
// run all three in one process.
//
// That is what TestCLIParity does: for each online≡offline recipe it starts
// Lavad on a loopback port, replays the trace with Lavaload -final-out,
// stops the daemon, runs Lavasim -final-out on the same trace and requires
// the two drain reports to be the same bytes. Both sides write them through
// the one canonical writer here, writeFinal.
package cli
