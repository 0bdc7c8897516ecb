package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"lava/internal/cluster"
	"lava/internal/ptrace"
	"lava/internal/scheduler"
	"lava/internal/simtime"
	"lava/internal/trace"
)

// Replay is counterfactual replay (DESIGN §7): it feeds a recorded decision
// stream back through the candidate pol and reports where pol disagrees. It
// runs a Machine over the recording's header tr, so samples, ticks and hooks
// fire in the Machine's order, with two adapters: the Machine's policy is
// pol, wrapped so that every Place/Fail is priced and then replaced by the
// recorded outcome (the pool follows the recorded trajectory), and an
// Injector re-applies the recorded kills, withdrawals and restores through
// Control at their tick, before that tick's OnTick.
//
// A divergence is priced at the first chain level where pol scores the
// recorded host and its own choice more than scheduler.ScoreEpsilon apart:
// Regret is recorded minus chosen there (level -1: a tie, or a policy that
// cannot price pairs; zero regret). pol must be a fresh instance; decisions
// must be in recorded order with creation records, as an unbounded
// ptrace.Recorder returns them. Defragmenter runs are not replayable: their
// withdrawals and restores are recorded, but their migrations and the
// capacity their copy windows hold are not.
func Replay(tr *trace.Trace, pol scheduler.Policy, decisions []ptrace.Decision) (*ptrace.Report, error) {
	if pol == nil {
		return nil, errors.New("sim: replay needs a policy")
	}
	rp := &replayPolicy{Policy: pol, rep: &ptrace.Report{Policy: pol.Name()}}
	inj := &replayInjector{}
	m, err := NewMachine(Config{Trace: tr, Policy: rp, Injectors: []Injector{inj}})
	if err != nil {
		return nil, err
	}
	for i := range decisions {
		d := &decisions[i]
		switch d.Kind {
		case ptrace.KindPlace, ptrace.KindFail:
			if d.Rec == nil {
				return nil, fmt.Errorf("sim: decision seq %d (%s) has no creation record; record with an unbounded recorder", d.Seq, d.Kind)
			}
			rp.d = d
			_, err = m.Create(*d.Rec, d.T)
		case ptrace.KindExit:
			var ok bool
			if ok, err = m.Exit(d.VM, d.T); err == nil && !ok {
				err = fmt.Errorf("vm %d is not running", d.VM)
			}
		case ptrace.KindKill, ptrace.KindWithdraw, ptrace.KindRestore:
			// Queued, not applied: the Machine reaches d.T only when a
			// later decision advances it, after every event of the tick is
			// queued.
			if d.T < m.nextTick || d.T%simtime.TickEvery != 0 {
				return nil, fmt.Errorf("sim: decision seq %d (%s) at %v is not at a pending tick", d.Seq, d.Kind, d.T)
			}
			if d.Kind != ptrace.KindKill && m.pool.Host(d.Host) == nil {
				return nil, fmt.Errorf("sim: decision seq %d touches unknown host %d", d.Seq, d.Host)
			}
			inj.queue = append(inj.queue, d)
		default:
			return nil, fmt.Errorf("sim: decision seq %d has unknown kind %d", d.Seq, d.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("sim: replay decision seq %d (%s): %w", d.Seq, d.Kind, err)
		}
		if inj.err != nil {
			return nil, inj.err
		}
	}
	if n := len(inj.queue); n > 0 {
		if err := m.Advance(inj.queue[n-1].T); err != nil {
			return nil, err
		}
	}
	return rp.rep, inj.err
}

// replayPolicy is the Machine's policy in Replay: the candidate, whose
// Schedule answer is priced against the recorded decision d and then
// replaced by it. Every other hook is the candidate's own.
type replayPolicy struct {
	scheduler.Policy
	d           *ptrace.Decision
	rep         *ptrace.Report
	sRec, sCand []float64
}

func (p *replayPolicy) Schedule(pool *cluster.Pool, vm *cluster.VM, now time.Duration) (*cluster.Host, error) {
	d := p.d
	var recorded *cluster.Host
	if d.Host >= 0 {
		if recorded = pool.Host(d.Host); recorded == nil {
			return nil, fmt.Errorf("places on unknown host %d", d.Host)
		}
	}
	h, err := p.Policy.Schedule(pool, vm, now)
	if err != nil && !errors.Is(err, scheduler.ErrNoCapacity) {
		return nil, err
	}
	chosen := cluster.HostID(-1)
	if err == nil {
		chosen = h.ID
	}
	p.rep.Decisions++
	if chosen == d.Host {
		p.rep.Matches++
	} else {
		div := ptrace.Divergence{Seq: d.Seq, T: d.T, VM: d.VM, Recorded: d.Host, Chosen: chosen, Level: -1}
		if chosen >= 0 && recorded != nil {
			div.Level, div.Regret = p.price(recorded, h, vm, now)
			p.rep.TotalRegret += div.Regret
		}
		p.rep.Divergences = append(p.rep.Divergences, div)
	}
	if recorded == nil {
		return nil, scheduler.ErrNoCapacity
	}
	return recorded, nil
}

// price returns the first chain level where the candidate scores the two
// hosts apart, and the score delta there (see Replay).
func (p *replayPolicy) price(recorded, chosen *cluster.Host, vm *cluster.VM, now time.Duration) (int, float64) {
	var ok bool
	if p.sRec, ok = scheduler.LevelScores(p.Policy, p.sRec[:0], recorded, vm, now); !ok {
		return -1, 0
	}
	p.sCand, _ = scheduler.LevelScores(p.Policy, p.sCand[:0], chosen, vm, now)
	for li := range min(len(p.sRec), len(p.sCand)) {
		if delta := p.sRec[li] - p.sCand[li]; math.Abs(delta) > scheduler.ScoreEpsilon {
			return li, delta
		}
	}
	return -1, 0
}

// replayInjector re-applies the recorded kills, withdrawals and restores at
// their tick. Replay queues them in recorded order; err keeps the first
// failure for Replay to return, since Inject cannot.
type replayInjector struct {
	queue []*ptrace.Decision
	err   error
}

func (in *replayInjector) Inject(ctl *Control, now time.Duration) {
	n := 0
	for ; n < len(in.queue) && in.queue[n].T <= now && in.err == nil; n++ {
		switch d := in.queue[n]; d.Kind {
		case ptrace.KindKill:
			if err := ctl.Kill(d.VM, now); err != nil {
				in.err = fmt.Errorf("sim: replay decision seq %d (kill): %w", d.Seq, err)
			}
		case ptrace.KindWithdraw:
			ctl.Withdraw(d.Host)
		case ptrace.KindRestore:
			ctl.Restore(d.Host)
		}
	}
	in.queue = in.queue[n:]
}
