package serve

import (
	"sync/atomic"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
)

// MemoPredictor forwards to the predictor Memoize was given, counting calls.
type MemoPredictor struct {
	p     model.Predictor
	calls atomic.Int64
}

// Memoize wraps p in a forwarder; maxEntries is ignored.
//
// Deprecated: the (features, uptime) memo table is gone — a reprediction
// never repeats a raw-nanosecond uptime, so it could not hit (DESIGN.md,
// serving point 6). The name stays because bench/ (which this repo's
// changes may not edit) calls it.
func Memoize(p model.Predictor, maxEntries int) *MemoPredictor { return &MemoPredictor{p: p} }

func (c *MemoPredictor) Name() string { return c.p.Name() }

func (c *MemoPredictor) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	c.calls.Add(1)
	return c.p.PredictRemaining(vm, uptime)
}
