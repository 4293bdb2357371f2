// Package store is the durable storage layer under the synthesis service:
// a content-addressed, on-disk artifact store plus an append-only job
// journal (journal.go). Synthesis runs are expensive — minutes of
// SPICE-driven cascade per job — so finished results, progress logs and
// rendered SVGs are persisted under their content address and survive
// process restarts.
//
// Layout of a store directory:
//
//	objects/ab/abcdef….result   framed blobs, sharded by key prefix
//	tmp/                        staging area for atomic writes
//	quarantine/                 blobs that failed their integrity check
//	journal.log                 append-only job journal (see Journal)
//
// Every blob is framed with a magic string, its payload length and a
// CRC-32C checksum, and written atomically (tmp file, fsync, rename, fsync
// of the shard directory). Reads verify the frame; a blob that fails
// verification is moved to quarantine/ and reported as missing, so a
// corrupted object degrades to a cache miss instead of poisoning callers
// or failing startup.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Blob frame: magic, payload CRC-32C, payload length, payload bytes.
var objMagic = [8]byte{'C', 'T', 'G', 'O', 'B', 'J', '0', '1'}

const objHeaderLen = 8 + 4 + 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Errors reported by the store.
var (
	// ErrNotFound: no blob under that key (possibly quarantined).
	ErrNotFound = errors.New("store: object not found")
	// ErrCorrupt wraps integrity failures; Get quarantines the blob and
	// returns an error matching both ErrCorrupt and ErrNotFound.
	ErrCorrupt = errors.New("store: object corrupt")
)

// corruptError matches both ErrCorrupt and ErrNotFound, so callers that
// only care about "is the object usable" can errors.Is(err, ErrNotFound)
// while diagnostics can still distinguish corruption.
type corruptError struct{ why string }

func (e *corruptError) Error() string { return "store: object corrupt: " + e.why }
func (e *corruptError) Is(target error) bool {
	return target == ErrCorrupt || target == ErrNotFound
}

// Store is a content-addressed blob store rooted at a directory. Keys are
// content addresses (hex hashes) with an optional dot-separated suffix
// naming the artifact kind, e.g. "ab12….result". Methods are safe for
// concurrent use.
type Store struct {
	dir     string
	sync    bool     // fsync files and directories on write
	metrics *Metrics // optional observability counters (SetMetrics)
}

// Open creates (if needed) and opens a store directory. With sync true
// every write is fsynced — the durability the service relies on; tests and
// throwaway runs may pass false.
func Open(dir string, sync bool) (*Store, error) {
	for _, sub := range []string{"objects", "tmp", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	// Stale staging files from a crashed writer are garbage (their rename
	// never happened): sweep them on open. Only genuinely old files go — a
	// store directory may be shared between processes (contango -cache-dir
	// alongside a running contangod -data-dir), and a fresh tmp file may be
	// another process's Put in flight.
	if tmps, err := os.ReadDir(filepath.Join(dir, "tmp")); err == nil {
		for _, e := range tmps {
			if info, err := e.Info(); err == nil && time.Since(info.ModTime()) > staleTmpAge {
				_ = os.Remove(filepath.Join(dir, "tmp", e.Name()))
			}
		}
	}
	return &Store{dir: dir, sync: sync, metrics: &Metrics{}}, nil
}

// staleTmpAge is how old a tmp/ staging file must be before Open treats it
// as a crashed writer's leftover. Puts live for milliseconds; an hour is
// conservatively beyond any in-flight write.
const staleTmpAge = time.Hour

// validKey reports whether key is safe as a file name under objects/:
// lower-case hex content addresses plus dot/dash suffixes, at least two
// leading shard characters, no path separators.
func validKey(key string) bool {
	if len(key) < 2 || len(key) > 255 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.', c == '-', c == '_':
		default:
			return false
		}
	}
	return key[0] != '.' && key[1] != '.'
}

func (s *Store) objectPath(key string) string {
	return filepath.Join(s.dir, "objects", key[:2], key)
}

// Put writes a blob under key atomically: frame into a tmp file, fsync,
// rename into the sharded objects/ tree, fsync the shard directory. An
// existing blob under the same key is replaced (content addressing makes
// replacement idempotent).
func (s *Store) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	shard := filepath.Dir(s.objectPath(key))
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	f, err := os.CreateTemp(filepath.Join(s.dir, "tmp"), "put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op after a successful rename

	hdr := objHeader(data)
	if _, err := f.Write(hdr[:]); err == nil {
		_, err = f.Write(data)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if s.sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, s.objectPath(key)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if s.sync {
		if err := syncDir(shard); err != nil {
			return err
		}
	}
	s.metrics.Writes.Inc()
	s.metrics.WriteBytes.Add(int64(len(data)))
	return nil
}

// Get reads the blob under key and verifies its frame. Corrupt blobs
// (bad magic, length mismatch, CRC failure) are moved to quarantine/ and
// reported with an error matching both ErrCorrupt and ErrNotFound.
func (s *Store) Get(key string) ([]byte, error) {
	if !validKey(key) {
		return nil, fmt.Errorf("store: invalid key %q", key)
	}
	raw, err := os.ReadFile(s.objectPath(key))
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	data, why := verifyFrame(raw)
	if why != "" {
		s.quarantine(key)
		return nil, &corruptError{why: fmt.Sprintf("%s: %s", key, why)}
	}
	s.metrics.Reads.Inc()
	s.metrics.ReadBytes.Add(int64(len(data)))
	return data, nil
}

// objHeader returns the frame header of a blob with payload data.
func objHeader(data []byte) [objHeaderLen]byte {
	var hdr [objHeaderLen]byte
	copy(hdr[:8], objMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(data, crcTable))
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(data)))
	return hdr
}

// verifyFrame checks a framed blob and returns its payload, or a non-empty
// reason string on failure.
func verifyFrame(raw []byte) ([]byte, string) {
	if len(raw) < objHeaderLen {
		return nil, "short header"
	}
	if [8]byte(raw[:8]) != objMagic {
		return nil, "bad magic"
	}
	n := binary.LittleEndian.Uint64(raw[12:20])
	if uint64(len(raw)-objHeaderLen) != n {
		return nil, "length mismatch"
	}
	payload := raw[objHeaderLen:]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(raw[8:12]) {
		return nil, "crc mismatch"
	}
	return payload, ""
}

// quarantine moves a bad blob aside so the next Get is a clean miss and
// the bytes stay available for post-mortem.
func (s *Store) quarantine(key string) {
	dst := filepath.Join(s.dir, "quarantine", key)
	if err := os.Rename(s.objectPath(key), dst); err != nil {
		// Last resort: a blob we can neither verify nor move must not keep
		// serving corrupt reads forever.
		_ = os.Remove(s.objectPath(key))
	}
	s.metrics.Quarantines.Inc()
}

// Size returns the payload size of the blob under key, if present.
func (s *Store) Size(key string) (int64, bool) {
	if !validKey(key) {
		return 0, false
	}
	fi, err := os.Stat(s.objectPath(key))
	if err != nil || fi.Size() < objHeaderLen {
		return 0, false
	}
	return fi.Size() - objHeaderLen, true
}

// Delete removes the blob under key (missing blobs are not an error).
func (s *Store) Delete(key string) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	if err := os.Remove(s.objectPath(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("store: sync %s: %w", dir, err)
	}
	return nil
}
