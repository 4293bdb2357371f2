package store

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// FuzzVerifyFrame feeds arbitrary bytes to the blob-frame check. It must
// never panic; an accepted blob must be exactly its payload under the
// payload's own header; and any payload framed by objHeader must verify
// back to itself. The seed corpus lives in testdata/fuzz/FuzzVerifyFrame.
func FuzzVerifyFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		if payload, why := verifyFrame(raw); why == "" {
			hdr := objHeader(payload)
			if !bytes.Equal(append(hdr[:], payload...), raw) {
				t.Fatalf("accepted blob %q is not its payload's frame", raw)
			}
		} else if payload != nil {
			t.Fatalf("rejected blob (%s) returned a payload", why)
		}
		hdr := objHeader(raw)
		payload, why := verifyFrame(append(hdr[:], raw...))
		if why != "" || !bytes.Equal(payload, raw) {
			t.Fatalf("framed payload %q does not verify back (%s)", raw, why)
		}
	})
}

// FuzzJournalReplay feeds arbitrary bytes to the journal replay that
// recovery runs on whatever a crash left on disk. It must never panic;
// every record it recovers must replay back to itself once framed again;
// and a record built from the input must survive frame and replay. The
// seed corpus lives in testdata/fuzz/FuzzJournalReplay.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, r := range replay(raw) {
			sameRecord(t, r, replay(frame(r)))
		}
		s := strings.ToValidUTF8(string(raw), "?")
		kind, key, _ := strings.Cut(s, " ")
		var seq, ns uint64
		for i, b := range raw {
			if i < 8 {
				seq = seq<<8 | uint64(b)
			} else if i < 16 {
				ns = ns<<8 | uint64(b)
			}
		}
		r := Record{Seq: seq, Time: time.Unix(0, int64(ns)).UTC(), Kind: kind, Key: key}
		sameRecord(t, r, replay(frame(r)))
	})
}

// sameRecord fails unless got is exactly the one record want.
func sameRecord(t *testing.T, want Record, got []Record) {
	t.Helper()
	if len(got) != 1 {
		t.Fatalf("record %+v replayed as %d records", want, len(got))
	}
	g := got[0]
	if g.Seq != want.Seq || !g.Time.Equal(want.Time) || g.Kind != want.Kind || g.Key != want.Key {
		t.Fatalf("record %+v replayed as %+v", want, g)
	}
}
