package gbdt

// trainCounted is Train, also returning the certification counters.
func trainCounted(X [][]float64, y []float64, p Params) (*Model, certStats, error) {
	var s certStats
	m, err := train(X, y, p, &s)
	return m, s, err
}

// walkedPerChild is the mean number of features a subtracted child walked
// again exactly.
func (s certStats) walkedPerChild() float64 {
	if s.children == 0 {
		return 0
	}
	return float64(s.walked) / float64(s.children)
}

// multiShare is the share of subtracted children that walked more than one
// feature again.
func (s certStats) multiShare() float64 {
	if s.children == 0 {
		return 0
	}
	return float64(s.multi) / float64(s.children)
}
