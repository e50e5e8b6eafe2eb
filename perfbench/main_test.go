package main

import (
	"io"
	"testing"
)

func TestParseOptionsSeed(t *testing.T) {
	o, err := parseOptions([]string{"--workload", "census"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.seed != defaultSeed || o.seconds != 20 || o.trace {
		t.Fatalf("defaults: %+v", o)
	}
	o, err = parseOptions([]string{"--workload", "bursty", "--seed", "7", "--seconds", "3", "--trace", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.seed != 7 || o.seconds != 3 || !o.trace || o.workload != "bursty" {
		t.Fatalf("parsed %+v", o)
	}
	for _, args := range [][]string{
		{"--workload", "census", "--seed", "x"},
		{"--workload", "census", "--seed", "-1"},
		{"--workload", "nope"},
		{},
		{"--workload", "census", "--trace", "2"},
		{"--workload", "census", "--seconds", "0"},
		{"--workload", "census", "extra"},
	} {
		if _, err := parseOptions(args, io.Discard); err == nil {
			t.Errorf("parseOptions(%q) accepted", args)
		}
	}
}

// The seed reaches every input: two seeds give different corpora and
// campaign seeds, one seed gives the same ones.
func TestSeedDerivesInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := w.corpus(subSeed(1, 0)), w.corpus(subSeed(2, 0))
		if a.Seed == b.Seed {
			t.Errorf("%s: seeds 1 and 2 share corpus seed %d", w.name, a.Seed)
		}
		if w.corpus(subSeed(1, 1)).Seed == a.Seed {
			t.Errorf("%s: a repetition's campaigns share a corpus seed", w.name)
		}
		if cfg := w.campaign(5, nil, nil); cfg.Seed != 5 || cfg.Workers != workers {
			t.Errorf("%s: campaign seed %d, workers %d", w.name, cfg.Seed, cfg.Workers)
		}
	}
	if subSeed(2022, 0) != 2022 {
		t.Fatal("the first campaign must run at the run seed")
	}
}
