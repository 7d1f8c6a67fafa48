package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// TestRunBuiltin pins what the command prints for the default question
// on the built-in table, with and without terminal colors, by SHA-256;
// the failure message prints the new value.
func TestRunBuiltin(t *testing.T) {
	golden := map[bool]string{
		false: "11083ac5317c4481b580569bbe1ef916a476648757a78f66556a2b8b9fa8942b",
		true:  "0826626771d88f24cd3e30c2c3fd9a5ae8f9bee990b0baa251da1ac9ccac341c",
	}
	for _, ansi := range []bool{false, true} {
		var out bytes.Buffer
		if err := run(&out, "", "Greece held its last Olympics in what year?", 7, ansi); err != nil {
			t.Errorf("run(ansi=%v): %v", ansi, err)
			continue
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != golden[ansi] {
			t.Errorf("ansi=%v: stdout hashes to %s, golden %s:\n%s", ansi, got, golden[ansi], out.Bytes())
		}
	}
}

func TestRunANSI(t *testing.T) {
	if err := run(io.Discard, "", "how many games were held in Athens?", 2, true); err != nil {
		t.Errorf("run: %v", err)
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run(io.Discard, "/nonexistent.csv", "q", 3, false); err == nil {
		t.Error("missing file should fail")
	}
}
