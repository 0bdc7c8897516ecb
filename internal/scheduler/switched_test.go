package scheduler

import (
	"testing"
	"time"

	"lava/internal/cluster"
)

func TestSwitchedPolicy(t *testing.T) {
	p := pool(2)
	// Pre: best fit; post: a chain preferring empty hosts (AvoidEmpty
	// inverted is not available, so distinguish via behaviour: wastemin
	// vs bestfit on a crafted state).
	pre := NewBestFit()
	post := NewWasteMin()
	s := NewSwitched(pre, post, 10*time.Hour)
	if s.Name() != "bestfit->wastemin" {
		t.Fatalf("name = %q", s.Name())
	}
	if s.active(9*time.Hour) != pre || s.active(10*time.Hour) != post {
		t.Fatal("switch boundary wrong")
	}
	// Scheduling delegates without error on both sides of the boundary.
	if _, err := s.Schedule(p, newVM(1, 4, 0, time.Hour), 9*time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schedule(p, newVM(2, 4, 0, time.Hour), 11*time.Hour); err != nil {
		t.Fatal(err)
	}
}

// hookRecorder counts the hooks a Switched arm receives.
type hookRecorder struct {
	Policy
	placed, exited, ticks int
}

func (r *hookRecorder) OnPlaced(*cluster.Pool, *cluster.Host, *cluster.VM, time.Duration) { r.placed++ }
func (r *hookRecorder) OnExited(*cluster.Pool, *cluster.Host, *cluster.VM, time.Duration) { r.exited++ }
func (r *hookRecorder) OnTick(*cluster.Pool, time.Duration)                               { r.ticks++ }

// TestSwitchedOnlyActiveArmObservesHooks pins the rollout contract: hooks go
// to the arm that owns the clock and to nobody else, so the post policy
// starts cold at the switch. Forwarding to both arms would move every fig16,
// table1 and fig7 number.
func TestSwitchedOnlyActiveArmObservesHooks(t *testing.T) {
	p := pool(2)
	pre := &hookRecorder{Policy: NewBestFit()}
	post := &hookRecorder{Policy: NewWasteMin()}
	at := 10 * time.Hour
	s := NewSwitched(pre, post, at)

	// One VM placed before the switch, exited after it: the placement is
	// the pre arm's, the exit the post arm's.
	vm := place(t, p, s, 1, 4, 0, 20*time.Hour, p.Host(0))
	s.OnTick(p, at-time.Minute)
	if pre.placed != 1 || pre.ticks != 1 || post.placed+post.exited+post.ticks != 0 {
		t.Fatalf("before the switch: pre %+v, post %+v", *pre, *post)
	}
	s.OnTick(p, at)
	s.OnExited(p, p.Host(0), vm, at+time.Hour)
	s.OnPlaced(p, p.Host(1), newVM(2, 4, at, time.Hour), at+time.Hour)
	if pre.placed != 1 || pre.exited != 0 || pre.ticks != 1 {
		t.Fatalf("pre arm saw post-switch events: %+v", *pre)
	}
	if post.placed != 1 || post.exited != 1 || post.ticks != 1 {
		t.Fatalf("post arm = %+v, want one of each", *post)
	}
}
