package ptrace

import (
	"errors"
	"fmt"
	"math"
	"time"

	"lava/internal/cluster"
	"lava/internal/resources"
	"lava/internal/scheduler"
	"lava/internal/simtime"
)

// Counterfactual replay: feed a recorded decision stream back through a
// candidate policy without re-simulating. The replayed pool follows the
// RECORDED trajectory — every placement lands on the recorded host, exits
// and withdrawals apply verbatim — while the candidate policy is asked, at
// each Place/Fail decision, what it would have chosen from the identical
// pool state. Divergences are priced by regret: the first chain level where
// the candidate scores the recorded host differently from its own choice,
// and the score delta there (positive when the candidate prefers its own
// pick, i.e. the recorded decision "cost" that much by the candidate's
// lights).
//
// Two parity properties anchor correctness, both enforced by tests and the
// counterfactual differential (experiments -counterfactual,
// TestCounterfactualDifferential):
//
//   - Self-replay: replaying policy A's trace under a fresh instance of A
//     reproduces every decision exactly (zero divergences). The replayed
//     pool state, virtual clock and policy hook sequence are identical to
//     the recording run's, so a deterministic policy must re-decide
//     identically.
//   - Re-simulation agreement: a full simulation under candidate B follows
//     the recorded trajectory exactly until the first counterfactual
//     divergence, where it places on the counterfactual's predicted host.
//
// Tick ordering mirrors sim.Machine: policy ticks fire lazily at
// simtime.TickEvery multiples; injector events (kill/withdraw/restore)
// recorded at tick time t happened inside the tick, before the policy's
// OnTick(t), while place/exit events at t happened after it. Pool-mutating
// Components (e.g. the defragmenter) are not part of the decision stream,
// so replay supports injector-only recordings; runs with such components
// should not be replayed.
type ReplayConfig struct {
	// PoolName, Hosts and HostShape reproduce the recorded pool geometry
	// (from trace.Trace: PoolName, Hosts, HostShape()).
	PoolName  string
	Hosts     int
	HostShape resources.Vector

	// Policy is the candidate the stream is re-priced under. It must be a
	// fresh instance: replay drives its full hook sequence (Schedule,
	// OnPlaced, OnExited, OnTick) from time zero.
	Policy scheduler.Policy
}

// Divergence is one decision where the candidate disagrees with the record.
type Divergence struct {
	Seq      uint64         `json:"seq"`
	T        time.Duration  `json:"t_ns"`
	VM       cluster.VMID   `json:"vm"`
	Recorded cluster.HostID `json:"recorded"`
	Chosen   cluster.HostID `json:"chosen"`
	// Level is the first chain level where the candidate scores the two
	// hosts apart (-1: every level ties, the divergence is pure host-ID
	// tie-breaking and costs nothing).
	Level int `json:"level"`
	// Regret is score(recorded) - score(chosen) at Level — how much worse
	// the recorded host is under the candidate's deciding criterion.
	Regret float64 `json:"regret"`
}

// Report summarizes a counterfactual replay.
type Report struct {
	Policy      string       `json:"policy"`
	Decisions   int          `json:"decisions"` // Place/Fail decisions replayed
	Matches     int          `json:"matches"`
	Divergences []Divergence `json:"divergences"`
	TotalRegret float64      `json:"total_regret"`
}

// Replay runs the recorded decision stream under cfg.Policy and reports
// every divergence. Decisions must be in recorded order (as returned by
// Recorder.Decisions on an unbounded recorder).
func Replay(cfg ReplayConfig, decisions []Decision) (*Report, error) {
	if cfg.Policy == nil {
		return nil, errors.New("ptrace: replay needs a policy")
	}
	if cfg.Hosts <= 0 {
		return nil, errors.New("ptrace: replay needs the recorded pool geometry")
	}
	pool := cluster.NewPool(cfg.PoolName, cfg.Hosts, cfg.HostShape)
	pol := cfg.Policy
	rep := &Report{Policy: pol.Name()}
	nextTick := simtime.TickEvery
	// advance fires the policy ticks due before t; inclusive additionally
	// fires the tick at t itself (place/exit ordering vs injector ordering,
	// see the package comment).
	advance := func(t time.Duration, inclusive bool) {
		for nextTick < t || (inclusive && nextTick == t) {
			pol.OnTick(pool, nextTick)
			nextTick += simtime.TickEvery
		}
	}
	var sRec, sCand []float64
	for i := range decisions {
		d := &decisions[i]
		switch d.Kind {
		case KindPlace, KindFail:
			advance(d.T, true)
			if d.Rec == nil {
				return nil, fmt.Errorf("ptrace: decision seq %d (%s) has no creation record; record with an unbounded recorder", d.Seq, d.Kind)
			}
			vm := &cluster.VM{
				ID:           d.Rec.ID,
				Shape:        d.Rec.Shape,
				Feat:         d.Rec.Feat,
				Created:      d.T,
				TrueLifetime: d.Rec.Lifetime,
			}
			h, err := pol.Schedule(pool, vm, d.T)
			chosen := cluster.HostID(-1)
			switch {
			case err == nil:
				chosen = h.ID
			case !errors.Is(err, scheduler.ErrNoCapacity):
				return nil, fmt.Errorf("ptrace: replay schedule vm %d: %w", vm.ID, err)
			}
			rep.Decisions++
			if chosen == d.Host {
				rep.Matches++
			} else {
				div := Divergence{Seq: d.Seq, T: d.T, VM: d.VM, Recorded: d.Host, Chosen: chosen, Level: -1}
				if chosen >= 0 && d.Host >= 0 {
					div.Level, div.Regret = priceDivergence(pol, pool, vm, d.T, d.Host, chosen, &sRec, &sCand)
					rep.TotalRegret += div.Regret
				}
				rep.Divergences = append(rep.Divergences, div)
			}
			if d.Host >= 0 {
				// Apply the recorded outcome, keeping the pool on the
				// recorded trajectory regardless of the candidate's opinion.
				host := pool.Host(d.Host)
				if host == nil {
					return nil, fmt.Errorf("ptrace: decision seq %d places on unknown host %d", d.Seq, d.Host)
				}
				if err := pool.Place(vm, host); err != nil {
					return nil, fmt.Errorf("ptrace: replay place vm %d on host %d: %w", vm.ID, d.Host, err)
				}
				pol.OnPlaced(pool, host, vm, d.T)
			}
		case KindExit, KindKill:
			// Natural exits happened after the tick at their timestamp;
			// injected kills inside it, before OnTick fired.
			advance(d.T, d.Kind == KindExit)
			h, vm, err := pool.Exit(d.VM)
			if err != nil {
				return nil, fmt.Errorf("ptrace: replay exit vm %d (seq %d): %w", d.VM, d.Seq, err)
			}
			pol.OnExited(pool, h, vm, d.T)
		case KindWithdraw, KindRestore:
			advance(d.T, false)
			h := pool.Host(d.Host)
			if h == nil {
				return nil, fmt.Errorf("ptrace: decision seq %d touches unknown host %d", d.Seq, d.Host)
			}
			if want := d.Kind == KindWithdraw; h.Unavailable != want {
				h.Unavailable = want
				pool.InvalidateHost(d.Host)
			}
		default:
			return nil, fmt.Errorf("ptrace: decision seq %d has unknown kind %d", d.Seq, d.Kind)
		}
	}
	return rep, nil
}

// priceDivergence scores the recorded and chosen hosts across the
// candidate's chain levels and returns the first level where they differ
// by more than the scheduler's own filter epsilon (scheduler.ScoreEpsilon)
// plus the score delta there (recorded minus chosen; positive = candidate
// prefers its own pick). Policies that cannot price arbitrary pairs report
// (-1, 0).
func priceDivergence(pol scheduler.Policy, pool *cluster.Pool, vm *cluster.VM, now time.Duration,
	recorded, chosen cluster.HostID, sRec, sCand *[]float64) (int, float64) {
	rh, ch := pool.Host(recorded), pool.Host(chosen)
	if rh == nil || ch == nil {
		return -1, 0
	}
	var ok bool
	*sRec, ok = scheduler.LevelScores(pol, (*sRec)[:0], rh, vm, now)
	if !ok {
		return -1, 0
	}
	*sCand, _ = scheduler.LevelScores(pol, (*sCand)[:0], ch, vm, now)
	n := len(*sRec)
	if len(*sCand) < n {
		n = len(*sCand)
	}
	for li := 0; li < n; li++ {
		if delta := (*sRec)[li] - (*sCand)[li]; math.Abs(delta) > scheduler.ScoreEpsilon {
			return li, delta
		}
	}
	return -1, 0
}
