package model

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"lava/internal/cluster"
	"lava/internal/simtime"
)

// Predictor estimates the remaining lifetime of a VM. Implementations must
// be safe for concurrent use and deterministic given the same inputs: a VM
// and its uptime Tu. PredictRemaining returns E(Tr | Tu) — "given a VM has
// been running for interval Tu, what is the expected remaining lifetime?"
// (§3).
//
// Calling PredictRemaining with uptime 0 yields the initial (schedule-time)
// prediction; subsequent calls with growing uptime are the repredictions
// that distinguish NILAS/LAVA from one-shot approaches. LAVA makes about
// twenty of them per placement, so an implementation may keep derived state
// to answer them (GBDTPredictor's step tables, memo and per-VM slots) as
// long as every answer equals the one it would compute from scratch. Such
// state may be keyed by VM ID only together with what the answer depends
// on: two VMs can share an ID, in different pools or one after the other.
//
// A predictor whose answer for a VM is a function of its uptime in steps
// (StepFn), and depends on nothing else of the VM than its features (which
// do not change while it lives), may also have a method
//
//	Steps(vm *cluster.VM) (StepFn, bool)
//
// returning the VM's step function, or false when it has none for the VM.
// Two shapes of step function are bound: the forest's plain steps
// (GBDTPredictor), constant on each step, and the distribution table's
// ramp steps (DistTable), which fall with the uptime on each step and hold
// a fallback past the last sample; StepFn gives both rules, negative
// uptimes included. A caller that holds the VM (scheduler.ExitCache) then
// binds its answers once and reads them through a StepCursor. The contract
// is bit-equality: for every VM that Steps accepts, Steps(vm).Remaining(u)
// equals PredictRemaining(vm, u) at every uptime u, negative ones too.
// A wrapper that may change answers (the scenarios' model swap, the
// no-reprediction ablation, a timing decorator) must not forward Steps;
// callers then take PredictRemaining.
type Predictor interface {
	Name() string
	PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration
}

// StepFn is one VM's remaining lifetime as a function of its uptime, in
// steps: step k holds the uptimes u with k entries of At <= u. At is
// sorted, and both slices are shared between VMs and never written. The
// length of Rem gives the shape:
//
//   - plain, len(Rem) > len(At) (the forest's): the answer on step k is
//     Rem[k], and a negative uptime answers as 0 does;
//   - ramp, len(Rem) == len(At) (the distribution table's, see
//     dist.Empirical.Ramp): on step k < len(At) the answer is Rem[k] - u,
//     the subtraction wrapping as int64 subtraction does, or MinRemaining(u)
//     when that is <= 0; on the last step, past every entry of At, it is
//     max(u/10, time.Minute). A negative uptime is read as itself. No entry
//     of Rem is negative.
type StepFn struct {
	At, Rem []time.Duration
}

// Remaining returns the answer at the uptime.
func (s StepFn) Remaining(uptime time.Duration) time.Duration {
	if len(s.Rem) > len(s.At) {
		rem, _, _ := s.span(uptime)
		return rem
	}
	d, _, _ := s.rampSpan(uptime)
	return rampAnswer(d, uptime)
}

// span returns a plain function's answer at the uptime and the uptimes
// [lo, hi) that share it; lo is math.MinInt64 on the step that holds
// uptime 0, hi math.MaxInt64 on the last step.
func (s StepFn) span(uptime time.Duration) (rem, lo, hi time.Duration) {
	uptime = max(uptime, 0)
	k := countAtMost(s.At, uptime)
	lo, hi = math.MinInt64, math.MaxInt64
	if k > 0 && s.At[k-1] > 0 {
		lo = s.At[k-1]
	}
	if k < len(s.At) {
		hi = s.At[k]
	}
	return s.Rem[k], lo, hi
}

// rampSpan returns the value of the ramp step that holds the uptime —
// Rem[k], or -1 on the last step — and the uptimes [lo, hi) the step
// spans; lo is math.MinInt64 on the first step, hi math.MaxInt64 on the
// last.
func (s StepFn) rampSpan(uptime time.Duration) (d, lo, hi time.Duration) {
	k := countAtMost(s.At, uptime)
	lo, hi, d = math.MinInt64, math.MaxInt64, -1
	if k > 0 {
		lo = s.At[k-1]
	}
	if k < len(s.At) {
		hi, d = s.At[k], s.Rem[k]
	}
	return d, lo, hi
}

// countAtMost returns the count of the sorted entries of at that are <= u.
func countAtMost(at []time.Duration, u time.Duration) int {
	k, n := 0, len(at)
	for k < n {
		if mid := int(uint(k+n) >> 1); at[mid] <= u {
			k = mid + 1
		} else {
			n = mid
		}
	}
	return k
}

// rampAnswer is a ramp step's answer at the uptime (see StepFn): the
// distribution table's rule, CondExpRemaining floored at MinRemaining.
func rampAnswer(d, uptime time.Duration) time.Duration {
	switch {
	case d < 0:
		return max(uptime/10, time.Minute)
	case d-uptime > 0:
		return d - uptime
	}
	return MinRemaining(uptime)
}

// StepCursor reads one VM's StepFn at the uptimes a simulation asks for,
// which mostly stay on one step: it keeps the step it read last, so a
// reprediction on that step is two compares and one load, plus the ramp's
// subtraction. The zero cursor over a StepFn (StepCursor{Fn: fn}) is ready
// to use.
type StepCursor struct {
	Fn StepFn

	lo, hi, v time.Duration // the step read last: its span [lo, hi) and value, as span or rampSpan gives them
}

// Remaining returns Fn's answer at the uptime.
func (c *StepCursor) Remaining(uptime time.Duration) time.Duration {
	if len(c.Fn.Rem) > len(c.Fn.At) {
		if c.lo <= uptime && uptime < c.hi {
			return c.v
		}
		c.v, c.lo, c.hi = c.Fn.span(uptime)
		return c.v
	}
	if uptime < c.lo || uptime >= c.hi {
		c.v, c.lo, c.hi = c.Fn.rampSpan(uptime)
	}
	return rampAnswer(c.v, uptime)
}

// MinRemaining is the floor applied to remaining-lifetime predictions. A
// model that believes a VM should already be gone cannot return zero
// forever: the fallback grows with uptime (10% of it) so host exit
// estimates stay finite and monotone. It is not quite the
// empirical-distribution fallback of dist.Empirical.CondExpRemaining,
// max(u/10, time.Minute), which rounds differently.
func MinRemaining(uptime time.Duration) time.Duration {
	min := time.Duration(float64(uptime) * 0.1)
	if min < time.Minute {
		min = time.Minute
	}
	return min
}

// --- Oracle ---------------------------------------------------------------

// Oracle predicts using ground-truth lifetimes from the trace. It is the
// "oracular predictor" of Fig. 6 / Fig. 16.
type Oracle struct{}

// Name implements Predictor.
func (Oracle) Name() string { return "oracle" }

// PredictRemaining returns the true remaining lifetime.
func (Oracle) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	rem := vm.TrueLifetime - uptime
	if rem <= 0 {
		return MinRemaining(uptime)
	}
	return rem
}

// --- Noisy oracle (Appendix G.1) -------------------------------------------

// NoisyOracle implements the accuracy sweep of Fig. 15: each VM is
// deterministically categorized as correctly predicted (probability =
// Accuracy) or mispredicted, and a Gaussian error in the Log10 domain is
// applied to its lifetime label (sigma 0.001 when correct, 3.0 when not).
// Predictions are capped to [0, 14 days] as in the paper.
//
// The perturbed lifetime is fixed per VM (seeded by VM ID), so repeated
// repredictions are consistent: the noisy oracle models a flawed model, not
// a noisy channel. It is therefore computed once per VM and kept: seeding
// the generator costs more than everything else a reprediction does. The
// exported fields must not change after the first prediction.
type NoisyOracle struct {
	Accuracy     float64 // fraction of VMs predicted correctly, in [0,1]
	Seed         int64
	SigmaCorrect float64 // log10-domain sigma for correct VMs (default 0.001)
	SigmaWrong   float64 // log10-domain sigma for mispredicted VMs (default 3)

	lifetimes sync.Map // noisyKey -> time.Duration; derived state
}

// noisyKey is what a perturbed lifetime depends on besides the oracle's own
// fields.
type noisyKey struct {
	id   cluster.VMID
	life time.Duration
}

// Name implements Predictor.
func (n *NoisyOracle) Name() string { return "noisy-oracle" }

// PredictedLifetime returns the perturbed total lifetime for the VM.
func (n *NoisyOracle) PredictedLifetime(vm *cluster.VM) time.Duration {
	key := noisyKey{vm.ID, vm.TrueLifetime}
	if d, ok := n.lifetimes.Load(key); ok {
		return d.(time.Duration)
	}
	d := n.perturb(vm)
	n.lifetimes.Store(key, d)
	return d
}

// perturb computes the perturbed lifetime from a generator seeded by the
// VM's ID.
func (n *NoisyOracle) perturb(vm *cluster.VM) time.Duration {
	rng := rand.New(rand.NewSource(n.Seed ^ int64(vm.ID)*0x5851F42D4C957F2D))
	sigmaC := n.SigmaCorrect
	if sigmaC == 0 {
		sigmaC = 0.001
	}
	sigmaW := n.SigmaWrong
	if sigmaW == 0 {
		sigmaW = 3
	}
	sigma := sigmaW
	if rng.Float64() < n.Accuracy {
		sigma = sigmaC
	}
	logh := simtime.Log10Hours(vm.TrueLifetime) + sigma*rng.NormFloat64()
	d := simtime.FromHours(math.Pow(10, logh))
	const cap = 14 * simtime.Day
	if d > cap {
		d = cap
	}
	if d < time.Second {
		d = time.Second
	}
	return d
}

// PredictRemaining returns perturbed-lifetime minus uptime, floored.
func (n *NoisyOracle) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	rem := n.PredictedLifetime(vm) - uptime
	if rem <= 0 {
		return MinRemaining(uptime)
	}
	return rem
}
