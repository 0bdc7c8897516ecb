// Package stats provides the statistical machinery behind the paper's
// production claims: Welch t-tests for the A/B pilot p-values (Table 1),
// stationary-bootstrap confidence intervals for the causal-impact rows, the
// dense linear solver behind the Cox and causal fits, and the usual
// descriptive helpers.
package stats
