package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputPinned: the simulator is deterministic, so the example's whole
// report is pinned byte for byte (testdata/output.txt was captured from
// the program before it moved off the facade).
func TestOutputPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output differs from testdata/output.txt:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}
