package sched

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Errors returned by admission and waiting.
var (
	// ErrSaturated rejects an Enqueue beyond the waiting-count bound.
	ErrSaturated = errors.New("sched: waiting queue full")
	// ErrAborted reports that a ticket's Await was abandoned via its abort
	// channel (job canceled, run context done).
	ErrAborted = errors.New("sched: ticket aborted")
)

// BacklogError rejects an admission because the estimated queue wait
// exceeds the pool's bound. RetryAfter is how long until the backlog is
// expected to drain back under the limit — the service layer surfaces it
// as an HTTP Retry-After header on the 429.
type BacklogError struct {
	Backlog    time.Duration // estimated wait for a new arrival
	RetryAfter time.Duration
}

func (e *BacklogError) Error() string {
	return fmt.Sprintf("sched: estimated queue wait %s exceeds admission limit (retry in %s)",
		e.Backlog.Round(time.Millisecond), e.RetryAfter.Round(time.Second))
}

// Claim describes the work a ticket schedules.
type Claim struct {
	// Label identifies the ticket in snapshots (the service uses job IDs).
	Label string
	// Estimate is the predicted slot occupancy.
	Estimate time.Duration
	// Deadline, when non-zero, is the job's soft deadline. It raises the
	// ticket's rank as slack runs out; it never kills work.
	Deadline time.Time
}

type ticketState int

const (
	stateWaiting ticketState = iota
	stateRunning
	stateDone
)

// Ticket is one schedulable unit's handle on the pool: enqueue, await a
// slot grant, optionally yield the slot mid-run, release. A ticket is not
// safe for concurrent use by multiple goroutines (each job drives its own).
type Ticket struct {
	claim     Claim
	remaining time.Duration // estimate not yet consumed (shrinks on yields)
	seq       uint64
	enqueued  time.Time // current wait's start (reset on yields)
	enqueued0 time.Time // original admission time
	granted   time.Time // current grant's start
	granted0  time.Time // first grant (QueueWait measures to here)
	yields    int
	state     ticketState
	ready     chan struct{} // closed on grant; fresh per wait cycle
}

// Label returns the claim label.
func (t *Ticket) Label() string { return t.claim.Label }

// Deadline returns the claim's soft deadline (zero = none).
func (t *Ticket) Deadline() time.Time { return t.claim.Deadline }

// QueueWait returns how long the ticket waited from admission to its
// first slot grant (0 while still waiting).
func (t *Ticket) QueueWait() time.Duration {
	if t.granted0.IsZero() {
		return 0
	}
	return t.granted0.Sub(t.enqueued0)
}

// Pool packs tickets onto a fixed number of worker slots. Grant order:
// deadline-urgent tickets first (earliest deadline wins), then
// shortest-remaining-estimate with linear aging — every second waited
// forgives aging seconds of estimate, so long jobs rise in rank instead
// of starving — with admission order as the tiebreak.
type Pool struct {
	slots      int
	maxWaiting int           // 0 = unbounded
	maxWait    time.Duration // 0 = no backlog-based admission bound

	mu      sync.Mutex
	free    int
	seq     uint64
	waiting []*Ticket
	running map[*Ticket]struct{}
}

// PoolConfig tunes a Pool.
type PoolConfig struct {
	// Slots is the number of concurrently granted tickets (worker count).
	Slots int
	// MaxWaiting bounds the waiting queue; Enqueue beyond it returns
	// ErrSaturated. 0 = unbounded.
	MaxWaiting int
	// MaxWait bounds admission by estimated queue wait; Enqueue returns a
	// *BacklogError when a new arrival would wait longer. 0 = unbounded.
	MaxWait time.Duration
}

// aging is the estimate-seconds forgiven per second of waiting: after
// waiting 2× its own estimate, a job outranks a fresh zero-cost arrival.
const aging = 0.5

// NewPool builds a pool with cfg.Slots free slots.
func NewPool(cfg PoolConfig) *Pool {
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	return &Pool{
		slots:      cfg.Slots,
		maxWaiting: cfg.MaxWaiting,
		maxWait:    cfg.MaxWait,
		free:       cfg.Slots,
		running:    make(map[*Ticket]struct{}),
	}
}

// Slots returns the pool's slot count.
func (p *Pool) Slots() int { return p.slots }

// Enqueue admits a claim, returning its ticket. The ticket may already be
// granted on return (free slot); the caller must Await it either way and
// Release it when done. Admission is bounded by MaxWaiting (ErrSaturated)
// and MaxWait (*BacklogError).
func (p *Pool) Enqueue(c Claim) (*Ticket, error) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.maxWaiting > 0 && len(p.waiting) >= p.maxWaiting {
		return nil, ErrSaturated
	}
	if p.maxWait > 0 && p.free == 0 {
		if backlog := p.backlogLocked(now); backlog > p.maxWait {
			retry := backlog - p.maxWait
			if retry < time.Second {
				retry = time.Second
			}
			return nil, &BacklogError{Backlog: backlog, RetryAfter: retry}
		}
	}
	if c.Estimate <= 0 {
		c.Estimate = minEstimate
	}
	p.seq++
	t := &Ticket{
		claim:     c,
		remaining: c.Estimate,
		seq:       p.seq,
		enqueued:  now,
		enqueued0: now,
		ready:     make(chan struct{}),
	}
	p.waiting = append(p.waiting, t)
	p.dispatchLocked(now)
	return t, nil
}

// Await blocks until the ticket is granted a slot or abort is closed.
// On abort the ticket is withdrawn (its slot released if a grant raced
// the abort) and ErrAborted is returned; the ticket is then dead.
func (p *Pool) Await(t *Ticket, abort <-chan struct{}) error {
	select {
	case <-t.ready:
		return nil
	case <-abort:
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch t.state {
	case stateRunning:
		// The grant raced the abort; hand the slot back.
		p.releaseLocked(t)
	case stateWaiting:
		p.removeWaitingLocked(t)
		t.state = stateDone
	}
	return ErrAborted
}

// Release returns the ticket's slot to the pool. Releasing a ticket that
// does not hold a slot (aborted, already released) is a no-op, so the
// caller's deferred Release composes with abort paths.
func (p *Pool) Release(t *Ticket) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t.state == stateRunning {
		p.releaseLocked(t)
	}
	t.state = stateDone
}

// Yield offers the ticket's slot to waiting tickets: if none are waiting
// it returns (false, nil) immediately and the slot is kept; otherwise the
// slot is released, the ticket re-enqueues with its remaining estimate,
// and Yield blocks until the ticket is granted again (reported as
// (true, nil)) or abort is closed ((true, ErrAborted) — the ticket is
// dead and the caller must stop). The splitter calls this between corner
// chunks, which is what lets short jobs overtake a monopolizing sweep.
func (p *Pool) Yield(t *Ticket, abort <-chan struct{}) (bool, error) {
	now := time.Now()
	p.mu.Lock()
	if t.state != stateRunning || len(p.waiting) == 0 {
		p.mu.Unlock()
		return false, nil
	}
	// Shrink the remaining estimate by the slot time just consumed, so the
	// re-enqueued ticket ranks by the work it still has to do.
	t.remaining -= now.Sub(t.granted)
	if t.remaining < minEstimate {
		t.remaining = minEstimate
	}
	t.yields++
	p.free++
	delete(p.running, t)
	t.state = stateWaiting
	t.enqueued = now
	t.ready = make(chan struct{})
	p.seq++
	t.seq = p.seq
	p.waiting = append(p.waiting, t)
	p.dispatchLocked(now)
	p.mu.Unlock()
	return true, p.Await(t, abort)
}

// Waiting returns the number of tickets waiting for a slot.
func (p *Pool) Waiting() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.waiting)
}

// Backlog estimates how long a new arrival would wait for a slot: the
// remaining estimated work of running and waiting tickets divided across
// the slots (0 when a slot is free).
func (p *Pool) Backlog() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free > 0 {
		return 0
	}
	return p.backlogLocked(time.Now())
}

func (p *Pool) backlogLocked(now time.Time) time.Duration {
	var total time.Duration
	for t := range p.running {
		if left := t.remaining - now.Sub(t.granted); left > 0 {
			total += left
		}
	}
	for _, t := range p.waiting {
		total += t.remaining
	}
	return total / time.Duration(p.slots)
}

// releaseLocked frees t's slot and re-dispatches.
func (p *Pool) releaseLocked(t *Ticket) {
	p.free++
	delete(p.running, t)
	t.state = stateDone
	p.dispatchLocked(time.Now())
}

func (p *Pool) removeWaitingLocked(t *Ticket) {
	for i, w := range p.waiting {
		if w == t {
			p.waiting = append(p.waiting[:i], p.waiting[i+1:]...)
			return
		}
	}
}

// urgencySlack is the soft-deadline guard band: a ticket becomes urgent
// (EDF class) once its deadline slack falls under a quarter of its
// remaining estimate plus this constant.
const urgencySlack = time.Second

// urgent reports whether t's deadline is in jeopardy at time now.
func (t *Ticket) urgent(now time.Time) bool {
	if t.claim.Deadline.IsZero() {
		return false
	}
	slack := t.claim.Deadline.Sub(now) - t.remaining
	return slack < t.remaining/4+urgencySlack
}

// rank orders waiting tickets; smaller is granted first.
func (p *Pool) rankLess(a, b *Ticket, now time.Time) bool {
	au, bu := a.urgent(now), b.urgent(now)
	if au != bu {
		return au
	}
	if au && bu && !a.claim.Deadline.Equal(b.claim.Deadline) {
		return a.claim.Deadline.Before(b.claim.Deadline)
	}
	as := a.remaining.Seconds() - aging*now.Sub(a.enqueued).Seconds()
	bs := b.remaining.Seconds() - aging*now.Sub(b.enqueued).Seconds()
	if as != bs {
		return as < bs
	}
	return a.seq < b.seq
}

// dispatchLocked grants free slots to the best-ranked waiting tickets.
func (p *Pool) dispatchLocked(now time.Time) {
	for p.free > 0 && len(p.waiting) > 0 {
		best := 0
		for i := 1; i < len(p.waiting); i++ {
			if p.rankLess(p.waiting[i], p.waiting[best], now) {
				best = i
			}
		}
		t := p.waiting[best]
		p.waiting = append(p.waiting[:best], p.waiting[best+1:]...)
		p.free--
		t.state = stateRunning
		t.granted = now
		if t.granted0.IsZero() {
			t.granted0 = now
		}
		p.running[t] = struct{}{}
		close(t.ready)
	}
}

// TicketInfo is one ticket's row in a pool snapshot.
type TicketInfo struct {
	Label     string        `json:"label"`
	Remaining time.Duration `json:"-"` // estimated slot time left
	Waited    time.Duration `json:"-"` // current wait (waiting tickets)
	Held      time.Duration `json:"-"` // current slot tenure (running tickets)
	Deadline  time.Time     `json:"-"`
	Urgent    bool          `json:"urgent,omitempty"`
	Yields    int           `json:"yields,omitempty"`
}

// PoolInfo is the pool's introspection snapshot. Waiting is sorted in
// grant order (the next granted ticket first).
type PoolInfo struct {
	Slots   int
	Free    int
	Backlog time.Duration
	Running []TicketInfo
	Waiting []TicketInfo
}

// Snapshot reports the pool's current packing state.
func (p *Pool) Snapshot() PoolInfo {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	info := PoolInfo{Slots: p.slots, Free: p.free}
	if p.free == 0 {
		info.Backlog = p.backlogLocked(now)
	}
	for t := range p.running {
		info.Running = append(info.Running, TicketInfo{
			Label:     t.claim.Label,
			Remaining: t.remaining,
			Held:      now.Sub(t.granted),
			Deadline:  t.claim.Deadline,
			Urgent:    t.urgent(now),
			Yields:    t.yields,
		})
	}
	sortInfos(info.Running)
	ordered := append([]*Ticket(nil), p.waiting...)
	for i := range ordered { // selection sort in grant order; queues are short
		best := i
		for j := i + 1; j < len(ordered); j++ {
			if p.rankLess(ordered[j], ordered[best], now) {
				best = j
			}
		}
		ordered[i], ordered[best] = ordered[best], ordered[i]
	}
	for _, t := range ordered {
		info.Waiting = append(info.Waiting, TicketInfo{
			Label:     t.claim.Label,
			Remaining: t.remaining,
			Waited:    now.Sub(t.enqueued),
			Deadline:  t.claim.Deadline,
			Urgent:    t.urgent(now),
			Yields:    t.yields,
		})
	}
	return info
}

func sortInfos(infos []TicketInfo) {
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j].Label < infos[j-1].Label; j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
}

// UpdateDeadline tightens (or sets) a ticket's soft deadline — used when
// a coalesced submission carries an earlier deadline than the in-flight
// job it joined. Loosening is ignored: the earliest requested deadline
// governs.
func (p *Pool) UpdateDeadline(t *Ticket, deadline time.Time) {
	if deadline.IsZero() {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if t.claim.Deadline.IsZero() || deadline.Before(t.claim.Deadline) {
		t.claim.Deadline = deadline
	}
}
