package scheduler

// Hooks for the external tests of this package (package scheduler_test),
// which drive policies through internal/sim and so cannot live in package
// scheduler itself.

// IsBlank exposes the blank-host predicate of the score cache.
var IsBlank = blank

// markedScorers returns the chain levels that carry the blank marker.
func (c *CachedChain) markedScorers() []Scorer {
	var out []Scorer
	for _, s := range c.Scorers {
		if f, ok := s.(ScorerFunc); ok && f.blankAlike {
			out = append(out, s)
		}
	}
	return out
}

// MarkedScorers returns the levels of p's chain that claim to score every
// blank host alike.
func MarkedScorers(p Policy) []Scorer {
	return p.(interface{ markedScorers() []Scorer }).markedScorers()
}
