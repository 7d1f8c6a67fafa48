package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestRunBuiltinTable pins what the command prints for the default
// query on the built-in table, per format, by SHA-256; the failure
// message prints the new value.
func TestRunBuiltinTable(t *testing.T) {
	golden := map[string]string{
		"text": "571177bfa5948206926c82df25e00f2fa154390f76b3c73460be2280e8151740",
		"ansi": "423bab19a2e0b9821018629cd7f4e9c7fa4bf027cbd950df6634badcff625f01",
		"html": "99ce4e1a92b8245a5e0e1c6f965dfa37cd1748613e6383ad49a16952882c2b68",
	}
	for _, format := range []string{"text", "ansi", "html"} {
		var out bytes.Buffer
		if err := run(&out, "", "max(R[Year].Country.Greece)", format); err != nil {
			t.Errorf("run(builtin, %s): %v", format, err)
			continue
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != golden[format] {
			t.Errorf("%s: stdout hashes to %s, golden %s:\n%s", format, got, golden[format], out.Bytes())
		}
	}
}

func TestRunCSVFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(path, []byte("A,B\n1,x\n2,y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, path, "count(B.x)", "text"); err != nil {
		t.Errorf("run(csv): %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, "", "NoColumn.x", "text"); err == nil {
		t.Error("unknown column should fail")
	}
	if err := run(io.Discard, "", "max(", "text"); err == nil {
		t.Error("syntax error should fail")
	}
	if err := run(io.Discard, "", "Country.Greece", "pdf"); err == nil {
		t.Error("unknown format should fail")
	}
	if err := run(io.Discard, "/nonexistent.csv", "Country.Greece", "text"); err == nil {
		t.Error("missing file should fail")
	}
}
