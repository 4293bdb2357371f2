package store

import "contango/internal/obs"

// Metrics are the observability counters the store and journal update.
// All fields are optional (obs metrics are nil-safe), so an uninstrumented
// store — the contango CLI's -cache-dir, say — pays only dead no-op calls.
type Metrics struct {
	Reads       *obs.Counter // successful object reads
	ReadBytes   *obs.Counter // payload bytes read
	Writes      *obs.Counter // successful object writes
	WriteBytes  *obs.Counter // payload bytes written
	Quarantines *obs.Counter // blobs moved aside after integrity failure

	JournalAppends   *obs.Counter // lifecycle records appended
	JournalCompacted *obs.Counter // records dropped by open-time compaction
}

// SetMetrics attaches observability counters to the store. Call once,
// right after Open, before concurrent use.
func (s *Store) SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	s.metrics = m
}

// SetMetrics attaches observability counters to the journal and
// retroactively credits the open-time compaction (which ran inside
// OpenJournal, before any counters could exist). Call once, right after
// OpenJournal, before concurrent use.
func (j *Journal) SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	j.metrics = m
	m.JournalCompacted.Add(int64(j.compacted))
}
