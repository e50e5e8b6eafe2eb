package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The last output line is the result object with exactly its four keys.
func TestEmitLastLine(t *testing.T) {
	r := newResult()
	r.set("setup_s", "s", 0.0123456789)
	r.Attempted, r.Failed = 10, 1
	r.note("a note")
	record := filepath.Join(t.TempDir(), "runs.jsonl")
	var out bytes.Buffer
	if err := emit(&out, r, options{workload: "census", seed: 9, record: record}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Fatalf("last line %s", lines[len(lines)-1])
	}
	if !strings.Contains(string(last["metrics"]), `"value":0.0123456789`) {
		t.Errorf("value lost digits: %s", last["metrics"])
	}
	data, err := os.ReadFile(record)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := readRuns(bytes.NewReader(data))
	if err != nil || sets["census"] == nil || sets["census"].runs != 1 {
		t.Fatalf("record %s: %v", data, err)
	}

	r.set("bad", "s", math.NaN())
	if err := emit(&out, r, options{}); err == nil {
		t.Fatal("emitted a NaN metric")
	}
}

func TestFailNotesOnce(t *testing.T) {
	r := newResult()
	r.fail("digest %s", "x")
	r.fail("digest %s", "x")
	if r.Correct || len(r.notes) != 1 {
		t.Fatalf("correct=%v notes=%q", r.Correct, r.notes)
	}
}
