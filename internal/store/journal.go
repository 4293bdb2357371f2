package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Record is one job-journal entry: a lifecycle transition of the job with
// the given content-address key. The payload a record carries is just the
// transition — job specs and results live in the object store under the
// same key, so the journal stays tiny and compaction is trivial.
type Record struct {
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Kind string    `json:"kind"` // submitted|started|pending|finished|failed|canceled
	Key  string    `json:"key"`
}

// Terminal reports whether the record's kind ends the job's lifecycle.
// Non-terminal records (submitted, started, pending) mean the job's work
// was lost in flight and must be re-queued on recovery.
func (r Record) Terminal() bool {
	switch r.Kind {
	case "finished", "failed", "canceled":
		return true
	}
	return false
}

// Journal is an append-only job journal with crc-checked framing. Each
// frame is [len uint32][crc32c uint32][JSON payload]; a torn tail (the
// frame a crash interrupted) is detected by the checksum, truncated away
// and the journal keeps working. OpenJournal compacts on open: only keys
// whose latest record is non-terminal survive — a terminal record means
// the job needs nothing from recovery (its result, if any, lives in the
// object store), so the journal stays proportional to the number of
// unfinished jobs, not the number of jobs ever processed.
type Journal struct {
	mu        sync.Mutex
	f         *os.File
	path      string
	sync      bool
	seq       uint64
	compacted int      // records dropped by the open-time compaction
	metrics   *Metrics // optional observability counters (SetMetrics)
}

// maxFrame bounds a journal frame; anything larger is treated as
// corruption rather than an allocation request.
const maxFrame = 1 << 20

// OpenJournal opens (creating if missing) the journal at path, replays and
// compacts it, and returns the surviving records in original order — one
// per key whose latest transition is non-terminal (terminal keys are
// compacted away entirely: nothing ever reads them back). A corrupt or
// torn frame ends the replay: everything before it is kept, the bad tail
// is dropped, and the rewritten file is clean. With sync true every append
// is fsynced.
func OpenJournal(path string, sync bool) (*Journal, []Record, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	recs := replayFile(path)

	// Compact: latest record per key, in first-submission order; keys that
	// reached a terminal state are dropped.
	var order []string
	seen := make(map[string]bool, len(recs))
	byKey := make(map[string]Record, len(recs))
	for _, r := range recs {
		if !seen[r.Key] {
			seen[r.Key] = true
			order = append(order, r.Key)
		}
		byKey[r.Key] = r // later records overwrite: last one wins
	}
	compacted := make([]Record, 0, len(order))
	for _, key := range order {
		r := byKey[key]
		if r.Terminal() {
			continue
		}
		r.Seq = uint64(len(compacted) + 1) // renumber densely
		compacted = append(compacted, r)
	}

	// Rewrite atomically, then reopen for append.
	tmp := path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	for _, r := range compacted {
		if _, err := f.Write(frame(r)); err != nil {
			f.Close()
			os.Remove(tmp)
			return nil, nil, fmt.Errorf("store: %w", err)
		}
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return nil, nil, fmt.Errorf("store: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	if sync {
		if err := syncDir(filepath.Dir(path)); err != nil {
			return nil, nil, err
		}
	}
	out, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	j := &Journal{f: out, path: path, sync: sync, seq: uint64(len(compacted)),
		compacted: len(recs) - len(compacted), metrics: &Metrics{}}
	return j, compacted, nil
}

// replayFile reads records until EOF or the first bad frame. The file not
// existing yet is an empty journal, and any framing damage simply ends the
// replay — recovery must tolerate whatever a crash left behind.
func replayFile(path string) []Record {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	return replay(raw)
}

// replay decodes journal frames from raw until its end or the first bad
// frame.
func replay(raw []byte) []Record {
	var recs []Record
	off := 0
	for off+8 <= len(raw) {
		n := int(binary.LittleEndian.Uint32(raw[off : off+4]))
		sum := binary.LittleEndian.Uint32(raw[off+4 : off+8])
		if n <= 0 || n > maxFrame || off+8+n > len(raw) {
			break // torn or nonsense tail
		}
		payload := raw[off+8 : off+8+n]
		if crc32.Checksum(payload, crcTable) != sum {
			break // bit rot from here on: drop the tail
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			break
		}
		recs = append(recs, r)
		off += 8 + n
	}
	return recs
}

func frame(r Record) []byte {
	payload, _ := json.Marshal(r) // Record has no unmarshalable fields
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[8:], payload)
	return buf
}

// Append journals one lifecycle transition and returns the stamped record.
func (j *Journal) Append(kind, key string) (Record, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return Record{}, fmt.Errorf("store: journal closed")
	}
	j.seq++
	r := Record{Seq: j.seq, Time: time.Now().UTC(), Kind: kind, Key: key}
	if _, err := j.f.Write(frame(r)); err != nil {
		return Record{}, fmt.Errorf("store: journal append: %w", err)
	}
	if j.sync {
		if err := j.f.Sync(); err != nil {
			return Record{}, fmt.Errorf("store: journal sync: %w", err)
		}
	}
	j.metrics.JournalAppends.Inc()
	return r, nil
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
