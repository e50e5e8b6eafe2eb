package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"runtime.memmove", "h3cdn/internal/tcpsim.(*Conn).Write", "h3cdn/internal/tlssim.(*Conn).Write"}, "tcpsim"},
		{[]string{"runtime.mapaccess2", "h3cdn/internal/bufpool.(*Arena).Get", "h3cdn/internal/tlssim.(*Conn).onTransportData"}, "tlssim"},
		{[]string{"h3cdn/internal/cdn.(*LRUCache[go.shape.string]).Add", "h3cdn/internal/cdn.(*Edge).serve"}, "cdn"},
		{[]string{"h3cdn/internal/core.RunCampaign.func1", "runtime.goexit"}, "core"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "h3cdn/internal/tcpsim.(*Pools).growSendBuf"}, "gc"},
		{[]string{"h3cdn/internal/har.(*PageLog).Recount", "main.main"}, "other"},
		{[]string{"runtime.futex", "runtime.mcall"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// census.pprof is a CPU profile of one census repetition. `go tool
// pprof -raw` reads 864 samples totalling 10.46 s from it, and
// -focus='runtime\.(gcBgMarkWorker|gcAssistAlloc|bgsweep|bgscavenge)$'
// puts 1.19 s of them under the garbage collector.
func loadTestProfile(t *testing.T) []profileSample {
	t.Helper()
	data, err := os.ReadFile("testdata/census.pprof")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestParseProfileMatchesPprof(t *testing.T) {
	samples := loadTestProfile(t)
	var total int64
	for _, s := range samples {
		total += s.weight
		if len(s.stack) == 0 {
			t.Fatal("sample without frames")
		}
	}
	if len(samples) != 864 || total != 10_460_000_000 {
		t.Fatalf("parsed %d samples, %d ns; pprof reads 864 samples, 10.46 s", len(samples), total)
	}
}

func TestLedgerSharesOfCheckedInProfile(t *testing.T) {
	samples := loadTestProfile(t)
	shares := ledgerShares(samples)
	sum := 0.0
	for bucket, share := range shares {
		if share < 0 || share > 1 {
			t.Errorf("share of %s = %v", bucket, share)
		}
		sum += share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
	if want := 1.19 / 10.46; math.Abs(shares["gc"]-want) > 1e-9 {
		t.Errorf("gc share %v, pprof reads %v", shares["gc"], want)
	}
	if len(shares) != len(ledgerLayers)+2 {
		t.Fatalf("%d buckets, want every layer plus gc and other", len(shares))
	}
	// Runtime leaves under a layer count as that layer's self time: the
	// profile must hold such samples, and they must not land in other.
	runtimeInLayer := map[string]int64{}
	for _, s := range samples {
		if !strings.HasPrefix(s.stack[0], "runtime.") {
			continue
		}
		if b := bucketOf(s.stack); b != "gc" && b != "other" {
			runtimeInLayer[b] += s.weight
		}
	}
	for _, layer := range []string{"simnet", "tcpsim"} {
		if runtimeInLayer[layer] == 0 {
			t.Errorf("no runtime-leaf samples attributed to %s", layer)
		}
	}
	if shares["other"] > 0.05 {
		t.Errorf("other holds %.3f of the profile; runtime frames should reach their callers", shares["other"])
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Fatal("parsed garbage")
	}
}
