// Scheduler introspection for the HTTP API: GET /api/v1/queue renders the
// packing scheduler's live state — slot occupancy, the ranked waiting
// queue, the estimated backlog, and the cost model's calibration — as one
// JSON document.
package service

import (
	"time"

	"contango/internal/sched"
)

// QueueEntryWire is one running or waiting job in the queue snapshot.
type QueueEntryWire struct {
	Job       string `json:"job"`
	Benchmark string `json:"benchmark,omitempty"`
	Plan      string `json:"plan,omitempty"`
	Corners   string `json:"corners,omitempty"`
	// RemainingMs is the scheduler's estimate of slot time the job still
	// needs; WaitedMs is its current queue wait (waiting entries) and
	// HeldMs its current slot tenure (running entries).
	RemainingMs float64    `json:"remaining_ms"`
	WaitedMs    float64    `json:"waited_ms,omitempty"`
	HeldMs      float64    `json:"held_ms,omitempty"`
	Deadline    *time.Time `json:"deadline,omitempty"`
	// Urgent marks waiting jobs whose soft deadline is in jeopardy: they
	// are granted slots earliest-deadline-first, ahead of everything else.
	Urgent bool `json:"urgent,omitempty"`
	// Yields counts how often the job has handed its slot to a waiter at a
	// corner-chunk boundary.
	Yields int `json:"yields,omitempty"`
}

// QueueWire is the response of GET /api/v1/queue.
type QueueWire struct {
	Scheduler string `json:"scheduler"`
	Slots     int    `json:"slots"`
	FreeSlots int    `json:"free_slots"`
	QueueLen  int    `json:"queue_len"`
	// BacklogSeconds estimates how long the waiting queue takes to drain
	// (0 whenever a slot is free).
	BacklogSeconds      float64          `json:"backlog_seconds"`
	MaxQueueWaitSeconds float64          `json:"max_queue_wait_seconds,omitempty"`
	SplitCorners        int              `json:"split_corners,omitempty"`
	Running             []QueueEntryWire `json:"running"`
	// Waiting is sorted in grant order: the job the scheduler hands the
	// next free slot to comes first.
	Waiting   []QueueEntryWire    `json:"waiting"`
	Estimator sched.EstimatorInfo `json:"estimator"`
}

// QueueInfo snapshots the scheduler state served at GET /api/v1/queue.
func (s *Service) QueueInfo() QueueWire {
	w := QueueWire{
		Scheduler: SchedulerPack,
		Slots:     s.cfg.Workers,
		Running:   []QueueEntryWire{},
		Waiting:   []QueueEntryWire{},
		Estimator: s.est.Snapshot(),
	}
	snap := s.pool.Snapshot()
	w.FreeSlots = snap.Free
	w.QueueLen = len(snap.Waiting)
	w.BacklogSeconds = snap.Backlog.Seconds()
	w.MaxQueueWaitSeconds = s.cfg.MaxQueueWait.Seconds()
	if s.cfg.SplitCorners > 0 {
		w.SplitCorners = s.cfg.SplitCorners
	}
	for _, t := range snap.Running {
		w.Running = append(w.Running, s.queueEntry(t))
	}
	for _, t := range snap.Waiting {
		w.Waiting = append(w.Waiting, s.queueEntry(t))
	}
	return w
}

// queueEntry joins one pool ticket with the job it schedules (tickets are
// labeled by job ID).
func (s *Service) queueEntry(t sched.TicketInfo) QueueEntryWire {
	e := QueueEntryWire{
		Job:         t.Label,
		RemainingMs: float64(t.Remaining) / float64(time.Millisecond),
		WaitedMs:    float64(t.Waited) / float64(time.Millisecond),
		HeldMs:      float64(t.Held) / float64(time.Millisecond),
		Urgent:      t.Urgent,
		Yields:      t.Yields,
	}
	if !t.Deadline.IsZero() {
		d := t.Deadline
		e.Deadline = &d
	}
	if j, ok := s.Job(t.Label); ok {
		e.Benchmark = j.benchmark.Name
		e.Plan = j.planLabel
		e.Corners = j.cornersLabel
	}
	return e
}
