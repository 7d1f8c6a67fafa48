package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay feeds arbitrary byte images to the recovery scan and
// asserts the recover-or-reject contract: every input either parses
// into a valid prefix (which must then survive truncation, reopening
// and further appends) or is rejected with an error — never a panic,
// and never an Open that leaves the log unusable.
//
// The seed corpus covers well-formed logs plus the crash shapes the
// scanner's policy distinguishes: truncations at every interesting
// boundary (torn tails) and bit flips in early records (hard
// corruption).
func FuzzWALReplay(f *testing.F) {
	// Build a small well-formed log image to seed from.
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.log")
	w, _, err := OpenFS(nil, seedPath)
	if err != nil {
		f.Fatal(err)
	}
	payloads := [][]byte{
		[]byte("register:nations"),
		[]byte(""),
		bytes.Repeat([]byte{0x5A}, 300),
		[]byte("drop:nations"),
	}
	for i, p := range payloads {
		if err := w.Append(byte(i+1), p); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-1])               // torn final byte
	f.Add(valid[:len(valid)/2])               // torn mid-log
	f.Add(append(valid, valid[:7]...))        // torn header after clean log
	f.Add(append(valid, make([]byte, 32)...)) // zero fill
	flipped := append([]byte(nil), valid...)
	flipped[10] ^= 0x40 // damage inside the first record, bytes follow
	f.Add(flipped)
	short := append([]byte(nil), valid...)
	short[0] ^= 0xFF // scramble the first length field
	f.Add(short)
	f.Add(tornWALImage(f)) // injector-produced torn tail (short write mid-record)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validLen, err := parse(data)
		if err != nil {
			// Rejected: fine, as long as Open agrees.
			path := filepath.Join(t.TempDir(), "f.log")
			if werr := os.WriteFile(path, data, 0o644); werr != nil {
				t.Fatal(werr)
			}
			if _, _, oerr := OpenFS(nil, path); oerr == nil {
				t.Fatalf("parse rejected (%v) but Open accepted", err)
			}
			return
		}
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0,%d]", validLen, len(data))
		}
		// The valid prefix must re-parse to the same records, cleanly.
		recs2, valid2, err2 := parse(data[:validLen])
		if err2 != nil || valid2 != validLen || len(recs2) != len(recs) {
			t.Fatalf("valid prefix unstable: %d/%v vs %d records", valid2, err2, len(recs))
		}
		for i := range recs {
			if recs[i].Tag != recs2[i].Tag || !bytes.Equal(recs[i].Data, recs2[i].Data) {
				t.Fatalf("record %d differs on re-parse", i)
			}
		}
		// Recovery must leave an appendable log: Open truncates the
		// tail, a fresh append lands, and a rescan sees prefix+append.
		path := filepath.Join(t.TempDir(), "f.log")
		if werr := os.WriteFile(path, data, 0o644); werr != nil {
			t.Fatal(werr)
		}
		wl, res, oerr := OpenFS(nil, path)
		if oerr != nil {
			t.Fatalf("parse accepted but Open failed: %v", oerr)
		}
		if res.Valid != validLen || len(res.Records) != len(recs) {
			t.Fatalf("Open scan disagrees with parse: %d/%d vs %d/%d",
				res.Valid, len(res.Records), validLen, len(recs))
		}
		if aerr := wl.Append(0x7F, []byte("post-recovery")); aerr != nil {
			t.Fatalf("append after recovery: %v", aerr)
		}
		if cerr := wl.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		after, serr := Scan(path)
		if serr != nil {
			t.Fatalf("rescan after recovery append: %v", serr)
		}
		if after.Truncated != 0 || len(after.Records) != len(recs)+1 {
			t.Fatalf("post-recovery log: %d records, %d torn bytes",
				len(after.Records), after.Truncated)
		}
		last := after.Records[len(after.Records)-1]
		if last.Tag != 0x7F || string(last.Data) != "post-recovery" {
			t.Fatalf("post-recovery append not last record")
		}
	})
}
