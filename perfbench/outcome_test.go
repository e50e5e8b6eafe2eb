package main

import (
	"math"
	"testing"
	"time"
)

func TestOutcomeShares(t *testing.T) {
	o := outcome{entries: 1000, failed: 4, generated: 200, shed: 10}
	if got := o.fetchSuccessShare(); math.Abs(got-0.996) > 1e-12 {
		t.Errorf("fetchSuccessShare = %v, want 0.996", got)
	}
	if got := o.visitAdmitShare(); math.Abs(got-0.95) > 1e-12 {
		t.Errorf("visitAdmitShare = %v, want 0.95", got)
	}
	if o.attempted() != 1010 || o.failures() != 14 {
		t.Errorf("attempted %d failed %d, want 1010 and 14", o.attempted(), o.failures())
	}
	closed := outcome{entries: 500}
	if closed.visitAdmitShare() != 1 || closed.fetchSuccessShare() != 1 {
		t.Error("a closed loop without failures must read 1 on both shares")
	}
}

func TestOutcomeAdd(t *testing.T) {
	var sum outcome
	sum.add(outcome{visits: 10, fetches: 100, entries: 100, digest: "a"})
	if sum.digest != "a" {
		t.Fatalf("one campaign keeps its own digest, got %q", sum.digest)
	}
	sum.add(outcome{visits: 5, fetches: 50, entries: 50, digest: "b"})
	if sum.visits != 15 || sum.fetches != 150 || sum.entries != 150 {
		t.Errorf("sums %+v", sum)
	}
	var other outcome
	other.add(outcome{digest: "b"})
	other.add(outcome{digest: "a"})
	if sum.digest == other.digest || len(sum.digest) != 64 {
		t.Errorf("combined digest %q must depend on campaign order", sum.digest)
	}
}

// Per-fetch and per-visit costs are medians over repetitions of each
// repetition's ratio.
func TestMedianCosts(t *testing.T) {
	mk := func(wall, cpu time.Duration, alloc, peak uint64) rep {
		return rep{
			cost: repCost{wall: wall, cpu: cpu, allocBytes: alloc, peakLive: peak},
			out:  outcome{visits: 100, fetches: 1000},
		}
	}
	c := medianCosts([]rep{
		mk(2*time.Second, 4*time.Second, 4e9, 300e6),
		mk(1*time.Second, 2*time.Second, 2e9, 100e6),
		mk(4*time.Second, 8*time.Second, 8e9, 200e6),
	})
	want := costs{
		fetchesPerS: 500, cpuUsPerFetch: 4000, allocKBPerFetch: 4000,
		visitsPerS: 50, cpuMsPerVisit: 40, allocMBPerVisit: 40, peakHeapMB: 200,
	}
	if c != want {
		t.Fatalf("medianCosts = %+v, want %+v", c, want)
	}
}
