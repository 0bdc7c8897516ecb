package mlp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Params configures training. A zero Epochs takes the default in brackets.
type Params struct {
	Epochs int   // passes over the data [30]
	Seed   int64 // weight-init / shuffle seed
}

// The fixed training settings: two hidden layers of 16 units, mini-batches
// of 64, SGD with momentum, each gradient element clipped to ±clipGrad,
// and L2 weight decay.
const (
	hidden    = 16
	batchSize = 64
	lr        = 0.01
	momentum  = 0.9
	clipGrad  = 1.0
	weightDec = 1e-5
)

// layer is a dense layer: out = act(W in + b).
type layer struct {
	w          []float64 // rows x cols, row-major: w[r*cols+c]
	b          []float64
	rows, cols int
	vw, vb     []float64 // momentum buffers
}

// Model is a trained regressor.
type Model struct {
	layers []layer
	mean   []float64 // input standardization
	std    []float64
	yMean  float64 // target standardization
	yStd   float64
}

// Train fits the network on rows X with targets y.
func Train(X [][]float64, y []float64, p Params) (*Model, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, errors.New("mlp: empty or mismatched training data")
	}
	if p.Epochs == 0 {
		p.Epochs = 30
	}
	nf := len(X[0])
	for i, row := range X {
		if len(row) != nf {
			return nil, fmt.Errorf("mlp: row %d has %d features, want %d", i, len(row), nf)
		}
	}
	rng := rand.New(rand.NewSource(p.Seed + 1))

	m := &Model{mean: make([]float64, nf), std: make([]float64, nf)}
	m.fitScalers(X, y)

	// Build layers: nf -> hidden... -> 1.
	widths := []int{nf, hidden, hidden, 1}
	for i := 0; i+1 < len(widths); i++ {
		in, out := widths[i], widths[i+1]
		l := layer{rows: out, cols: in,
			w: make([]float64, out*in), b: make([]float64, out),
			vw: make([]float64, out*in), vb: make([]float64, out)}
		scale := math.Sqrt(2.0 / float64(in))
		for j := range l.w {
			l.w[j] = rng.NormFloat64() * scale
		}
		m.layers = append(m.layers, l)
	}

	n := len(X)
	idx := rng.Perm(n)
	// Pre-standardize inputs and targets once.
	Xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range X {
		Xs[i] = m.scaleIn(X[i])
		ys[i] = (y[i] - m.yMean) / m.yStd
	}

	for epoch := 0; epoch < p.Epochs; epoch++ {
		// Reshuffle each epoch.
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < n; start += batchSize {
			m.sgdStep(Xs, ys, idx[start:min(start+batchSize, n)])
		}
	}
	return m, nil
}

func (m *Model) fitScalers(X [][]float64, y []float64) {
	nf := len(m.mean)
	n := float64(len(X))
	for _, row := range X {
		for a := 0; a < nf; a++ {
			m.mean[a] += row[a]
		}
	}
	for a := 0; a < nf; a++ {
		m.mean[a] /= n
	}
	for _, row := range X {
		for a := 0; a < nf; a++ {
			d := row[a] - m.mean[a]
			m.std[a] += d * d
		}
	}
	for a := 0; a < nf; a++ {
		m.std[a] = math.Sqrt(m.std[a] / n)
		if m.std[a] < 1e-12 {
			m.std[a] = 1
		}
	}
	for _, v := range y {
		m.yMean += v
	}
	m.yMean /= n
	for _, v := range y {
		d := v - m.yMean
		m.yStd += d * d
	}
	m.yStd = math.Sqrt(m.yStd / n)
	if m.yStd < 1e-12 {
		m.yStd = 1
	}
}

func (m *Model) scaleIn(x []float64) []float64 {
	out := make([]float64, len(x))
	for a := range x {
		out[a] = (x[a] - m.mean[a]) / m.std[a]
	}
	return out
}

// forward computes activations for each layer; returns per-layer outputs
// (post-activation), with the input as element 0.
func (m *Model) forward(x []float64) [][]float64 {
	acts := make([][]float64, len(m.layers)+1)
	acts[0] = x
	cur := x
	for li := range m.layers {
		l := &m.layers[li]
		out := make([]float64, l.rows)
		for r := 0; r < l.rows; r++ {
			s := l.b[r]
			row := l.w[r*l.cols : (r+1)*l.cols]
			for c, v := range cur {
				s += row[c] * v
			}
			if li < len(m.layers)-1 {
				s = math.Tanh(s)
			}
			out[r] = s
		}
		acts[li+1] = out
		cur = out
	}
	return acts
}

// sgdStep runs one mini-batch update.
func (m *Model) sgdStep(X [][]float64, y []float64, batch []int) {
	// Accumulate gradients.
	type grads struct{ w, b []float64 }
	gs := make([]grads, len(m.layers))
	for i, l := range m.layers {
		gs[i] = grads{w: make([]float64, len(l.w)), b: make([]float64, len(l.b))}
	}
	for _, i := range batch {
		acts := m.forward(X[i])
		// Output delta (linear output, MSE): d = (pred - y).
		deltas := []float64{acts[len(acts)-1][0] - y[i]}
		for li := len(m.layers) - 1; li >= 0; li-- {
			l := &m.layers[li]
			in := acts[li]
			for r := 0; r < l.rows; r++ {
				gs[li].b[r] += deltas[r]
				for c := 0; c < l.cols; c++ {
					gs[li].w[r*l.cols+c] += deltas[r] * in[c]
				}
			}
			if li == 0 {
				break
			}
			// Backpropagate through tanh of layer li-1.
			prev := make([]float64, l.cols)
			for c := 0; c < l.cols; c++ {
				s := 0.0
				for r := 0; r < l.rows; r++ {
					s += l.w[r*l.cols+c] * deltas[r]
				}
				a := acts[li][c]
				prev[c] = s * (1 - a*a)
			}
			deltas = prev
		}
	}
	// Apply with momentum, clipping and weight decay.
	scale := 1.0 / float64(len(batch))
	for li := range m.layers {
		l := &m.layers[li]
		for j := range l.w {
			g := gs[li].w[j]*scale + weightDec*l.w[j]
			g = clip(g, clipGrad)
			l.vw[j] = momentum*l.vw[j] - lr*g
			l.w[j] += l.vw[j]
		}
		for j := range l.b {
			g := clip(gs[li].b[j]*scale, clipGrad)
			l.vb[j] = momentum*l.vb[j] - lr*g
			l.b[j] += l.vb[j]
		}
	}
}

func clip(g, c float64) float64 {
	if g > c {
		return c
	}
	if g < -c {
		return -c
	}
	return g
}

// Predict returns the regression output for a raw feature vector.
func (m *Model) Predict(x []float64) float64 {
	acts := m.forward(m.scaleIn(x))
	return acts[len(acts)-1][0]*m.yStd + m.yMean
}
