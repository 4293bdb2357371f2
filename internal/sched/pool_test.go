package sched

import (
	"errors"
	"testing"
	"time"
)

func mustEnqueue(t *testing.T, p *Pool, c Claim) *Ticket {
	t.Helper()
	tk, err := p.Enqueue(c)
	if err != nil {
		t.Fatalf("Enqueue(%+v): %v", c, err)
	}
	return tk
}

func awaitGranted(t *testing.T, p *Pool, tk *Ticket) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- p.Await(tk, nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Await(%s): %v", tk.claim.Label, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Await(%s): not granted in time", tk.claim.Label)
	}
}

func TestPoolGrantsFreeSlotImmediately(t *testing.T) {
	p := NewPool(PoolConfig{Slots: 2})
	a := mustEnqueue(t, p, Claim{Label: "a", Estimate: time.Second})
	awaitGranted(t, p, a)
	if got := p.Waiting(); got != 0 {
		t.Fatalf("waiting = %d, want 0", got)
	}
	p.Release(a)
	p.Release(a) // idempotent
}

// With the only slot held, a short job enqueued after a long one must be
// granted first (shortest-estimate-first packing).
func TestPoolShortestFirst(t *testing.T) {
	p := NewPool(PoolConfig{Slots: 1})
	hold := mustEnqueue(t, p, Claim{Label: "hold", Estimate: time.Second})
	awaitGranted(t, p, hold)
	long := mustEnqueue(t, p, Claim{Label: "long", Estimate: 100 * time.Second})
	short := mustEnqueue(t, p, Claim{Label: "short", Estimate: time.Second})

	snap := p.Snapshot()
	if len(snap.Waiting) != 2 || snap.Waiting[0].Label != "short" {
		t.Fatalf("grant order = %+v, want short first", snap.Waiting)
	}
	p.Release(hold)
	awaitGranted(t, p, short)
	if long.state != stateWaiting {
		t.Fatalf("long ticket state = %v, want still waiting", long.state)
	}
	p.Release(short)
	awaitGranted(t, p, long)
	p.Release(long)
}

// A ticket whose soft deadline is in jeopardy outranks shorter work
// (earliest-deadline-first within the urgent class).
func TestPoolDeadlineUrgencyFirst(t *testing.T) {
	p := NewPool(PoolConfig{Slots: 1})
	hold := mustEnqueue(t, p, Claim{Label: "hold", Estimate: time.Second})
	awaitGranted(t, p, hold)
	short := mustEnqueue(t, p, Claim{Label: "short", Estimate: time.Second})
	urgent := mustEnqueue(t, p, Claim{Label: "urgent", Estimate: 30 * time.Second,
		Deadline: time.Now().Add(10 * time.Second)}) // slack already negative
	if snap := p.Snapshot(); snap.Waiting[0].Label != "urgent" || !snap.Waiting[0].Urgent {
		t.Fatalf("grant order = %+v, want urgent first", snap.Waiting)
	}
	p.Release(hold)
	awaitGranted(t, p, urgent)
	p.Release(urgent)
	awaitGranted(t, p, short)
	p.Release(short)
}

// Aging: waiting linearly forgives estimate, so a long job that has
// waited long enough outranks a fresh short one — nothing starves.
func TestPoolAgingPreventsStarvation(t *testing.T) {
	p := NewPool(PoolConfig{Slots: 1})
	now := time.Now()
	long := &Ticket{claim: Claim{Label: "long"}, remaining: 10 * time.Second,
		enqueued: now.Add(-30 * time.Second), seq: 1}
	fresh := &Ticket{claim: Claim{Label: "fresh"}, remaining: time.Second,
		enqueued: now, seq: 2}
	if !p.rankLess(long, fresh, now) {
		t.Fatalf("long job that waited 30s (10s - 0.5*30 = -5) should outrank fresh 1s job")
	}
	// Without the wait it would not.
	long.enqueued = now
	if p.rankLess(long, fresh, now) {
		t.Fatalf("fresh long job should not outrank short job")
	}
}

func TestPoolYieldNoWaitersKeepsSlot(t *testing.T) {
	p := NewPool(PoolConfig{Slots: 1})
	a := mustEnqueue(t, p, Claim{Label: "a", Estimate: time.Second})
	awaitGranted(t, p, a)
	yielded, err := p.Yield(a, nil)
	if yielded || err != nil {
		t.Fatalf("Yield with empty queue = (%v, %v), want (false, nil)", yielded, err)
	}
	p.Release(a)
}

// Yield hands the slot to a waiter and blocks until re-granted.
func TestPoolYieldHandsSlotToWaiter(t *testing.T) {
	p := NewPool(PoolConfig{Slots: 1})
	sweep := mustEnqueue(t, p, Claim{Label: "sweep", Estimate: 100 * time.Second})
	awaitGranted(t, p, sweep)
	interactive := mustEnqueue(t, p, Claim{Label: "interactive", Estimate: time.Second})

	ran := make(chan struct{})
	go func() {
		if err := p.Await(interactive, nil); err != nil {
			t.Errorf("interactive Await: %v", err)
		}
		close(ran)
		time.Sleep(20 * time.Millisecond)
		p.Release(interactive)
	}()

	yielded, err := p.Yield(sweep, nil)
	if !yielded || err != nil {
		t.Fatalf("Yield = (%v, %v), want (true, nil)", yielded, err)
	}
	select {
	case <-ran:
	default:
		t.Fatalf("sweep re-granted before the interactive waiter ran")
	}
	if sweep.yields != 1 {
		t.Fatalf("sweep yields = %d, want 1", sweep.yields)
	}
	p.Release(sweep)
}

func TestPoolAwaitAbort(t *testing.T) {
	p := NewPool(PoolConfig{Slots: 1})
	hold := mustEnqueue(t, p, Claim{Label: "hold", Estimate: time.Second})
	awaitGranted(t, p, hold)
	w := mustEnqueue(t, p, Claim{Label: "w", Estimate: time.Second})
	abort := make(chan struct{})
	close(abort)
	if err := p.Await(w, abort); !errors.Is(err, ErrAborted) {
		t.Fatalf("Await after abort = %v, want ErrAborted", err)
	}
	if got := p.Waiting(); got != 0 {
		t.Fatalf("aborted ticket still waiting (%d)", got)
	}
	// The abandoned ticket must not leak the slot.
	p.Release(hold)
	next := mustEnqueue(t, p, Claim{Label: "next", Estimate: time.Second})
	awaitGranted(t, p, next)
	p.Release(next)
}

func TestPoolBoundedAdmission(t *testing.T) {
	p := NewPool(PoolConfig{Slots: 1, MaxWaiting: 8, MaxWait: time.Minute})
	hold := mustEnqueue(t, p, Claim{Label: "hold", Estimate: 10 * time.Second})
	awaitGranted(t, p, hold)

	// Backlog bound: the slot is held for an estimated 10s, so a queue
	// already estimated past MaxWait rejects with a BacklogError.
	if _, err := p.Enqueue(Claim{Label: "big", Estimate: 10 * time.Minute}); err != nil {
		t.Fatalf("first waiter should be admitted (backlog 10s < 1m): %v", err)
	}
	_, err := p.Enqueue(Claim{Label: "late", Estimate: time.Second})
	var be *BacklogError
	if !errors.As(err, &be) {
		t.Fatalf("Enqueue past backlog = %v, want *BacklogError", err)
	}
	if be.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", be.RetryAfter)
	}

	// Waiting-count bound (checked before backlog): the queue holds one.
	p2 := NewPool(PoolConfig{Slots: 1, MaxWaiting: 1})
	h2 := mustEnqueue(t, p2, Claim{Label: "h", Estimate: time.Second})
	awaitGranted(t, p2, h2)
	mustEnqueue(t, p2, Claim{Label: "w1", Estimate: time.Second})
	if _, err := p2.Enqueue(Claim{Label: "w2", Estimate: time.Second}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("Enqueue past MaxWaiting = %v, want ErrSaturated", err)
	}
}

func TestPoolUpdateDeadlineOnlyTightens(t *testing.T) {
	p := NewPool(PoolConfig{Slots: 1})
	tk := mustEnqueue(t, p, Claim{Label: "a", Estimate: time.Second})
	early := time.Now().Add(time.Minute)
	late := early.Add(time.Hour)
	p.UpdateDeadline(tk, late)
	if !tk.claim.Deadline.Equal(late) {
		t.Fatalf("deadline not set")
	}
	p.UpdateDeadline(tk, early)
	if !tk.claim.Deadline.Equal(early) {
		t.Fatalf("earlier deadline did not tighten")
	}
	p.UpdateDeadline(tk, late)
	if !tk.claim.Deadline.Equal(early) {
		t.Fatalf("later deadline loosened the ticket")
	}
	p.Release(tk)
}
