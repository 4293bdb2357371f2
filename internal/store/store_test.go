package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"contango/internal/obs"
)

const k1 = "ab12cdef0000000000000000000000000000000000000000000000000000ffff.result"

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello, artifact")
	if err := s.Put(k1, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(k1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
	// Sharded layout: objects/ab/<key>.
	if _, err := os.Stat(filepath.Join(s.dir, "objects", "ab", k1)); err != nil {
		t.Errorf("blob not in sharded location: %v", err)
	}
	if n, ok := s.Size(k1); !ok || n != int64(len(data)) {
		t.Errorf("Size = %d,%v want %d,true", n, ok, len(data))
	}
	if ents, err := os.ReadDir(filepath.Join(s.dir, "objects", "ab")); err != nil || len(ents) != 1 {
		t.Errorf("shard holds %d entries (%v), want 1", len(ents), err)
	}
	// Overwrite is idempotent replacement.
	if err := s.Put(k1, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(k1); string(got) != "v2" {
		t.Errorf("overwrite not visible: %q", got)
	}
}

func TestGetMissing(t *testing.T) {
	s, _ := Open(t.TempDir(), false)
	if _, err := s.Get(k1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v want ErrNotFound", err)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s, _ := Open(t.TempDir(), false)
	for _, key := range []string{"", "a", "../evil", "ab/cd", "AB12", "a b", ".hidden", strings.Repeat("x", 300)} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put accepted invalid key %q", key)
		}
		if _, err := s.Get(key); err == nil {
			t.Errorf("Get accepted invalid key %q", key)
		}
	}
}

func TestCorruptBlobQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, false)
	m := &Metrics{Quarantines: obs.NewRegistry().Counter("quarantines", "")}
	s.SetMetrics(m)
	if err := s.Put(k1, []byte("precious result bytes")); err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit on disk.
	path := filepath.Join(dir, "objects", "ab", k1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = s.Get(k1)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v want ErrCorrupt", err)
	}
	if !errors.Is(err, ErrNotFound) {
		t.Error("corruption should also read as not-found for cache callers")
	}
	if got := m.Quarantines.Value(); got != 1 {
		t.Errorf("Quarantines = %d want 1", got)
	}
	// The bad blob moved aside: next read is a clean miss, bytes kept for
	// post-mortem.
	if _, err := s.Get(k1); !errors.Is(err, ErrNotFound) || errors.Is(err, ErrCorrupt) {
		t.Errorf("second read should be a clean miss, got %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", k1)); err != nil {
		t.Errorf("quarantined bytes missing: %v", err)
	}
}

func TestTruncatedBlobQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, false)
	if err := s.Put(k1, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "objects", "ab", k1)
	if err := os.Truncate(path, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(k1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v want ErrCorrupt", err)
	}
}

func TestDelete(t *testing.T) {
	s, _ := Open(t.TempDir(), false)
	if err := s.Put(k1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(k1); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Size(k1); ok {
		t.Error("deleted blob still present")
	}
	if err := s.Delete(k1); err != nil {
		t.Errorf("double delete should be a no-op: %v", err)
	}
}

func TestOpenSweepsOnlyStaleTmp(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, false); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "tmp", "put-crashed")
	fresh := filepath.Join(dir, "tmp", "put-inflight")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Age the crashed writer's leftover past the sweep threshold.
	old := time.Now().Add(-2 * staleTmpAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, false); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale tmp file survived reopen")
	}
	// A fresh staging file may be another process's Put in flight (shared
	// cache-dir): it must survive.
	if _, err := os.Stat(fresh); err != nil {
		t.Error("in-flight tmp file swept by reopen")
	}
}

func TestSyncedPut(t *testing.T) {
	// Just exercise the fsync path; durability itself can't be unit-tested.
	s, err := Open(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k1, []byte("synced")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(k1); err != nil || string(got) != "synced" {
		t.Fatalf("got %q, %v", got, err)
	}
}
