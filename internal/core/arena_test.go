package core

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/sketch"
	"h3cdn/internal/traffic"
	"h3cdn/internal/webgen"
)

// TestArenaBalancedAfterVisits is the arena leak check: after every
// clean visit, the universe's buffer arena must have every Get matched
// by a Put (Rewind's outstanding balance is zero). A non-zero balance
// means a transport or HTTP layer dropped a pooled buffer without
// returning it — a leak that would grow the warm-shard footprint one
// visit at a time.
func TestArenaBalancedAfterVisits(t *testing.T) {
	corpus := webgen.Generate(webgen.Config{Seed: 7, NumPages: 4, MeanResources: 10})
	for _, mode := range []browser.Mode{browser.ModeH2, browser.ModeH3} {
		t.Run(mode.String(), func(t *testing.T) {
			u, err := NewUniverse(UniverseConfig{Seed: 11, Corpus: corpus})
			if err != nil {
				t.Fatal(err)
			}
			defer u.Close()
			b := u.NewBrowser(browser.Config{Mode: mode, EnableZeroRTT: true})
			for i := range corpus.Pages {
				if err := u.RunVisitDiscard(b, &corpus.Pages[i]); err != nil {
					t.Fatal(err)
				}
				b.ClearSessions()
				if bal := u.Pools().Arena.Rewind(); bal != 0 {
					t.Fatalf("visit %d: arena balance %d, want 0 (leak)", i, bal)
				}
			}
			st := u.Pools().Arena.Stats()
			if st.Gets == 0 {
				t.Fatal("arena never used — pool wiring broken")
			}
			if st.Gets != st.Puts {
				t.Fatalf("arena gets %d != puts %d", st.Gets, st.Puts)
			}
			t.Logf("mode %s: gets=puts=%d news=%d high-water=%d", mode, st.Gets, st.News, st.HighWater)
		})
	}

	// Open loop: the population engine runs a whole epoch in one
	// Sched.Run, visits overlapping and no visit-boundary Rewind between
	// them, so buffers must come back as soon as nothing reads them.
	// Once the scheduler drains, neither the arena nor any TCP send
	// array may still be held.
	for _, mode := range []browser.Mode{browser.ModeH2, browser.ModeH3} {
		t.Run(mode.String()+"-traffic-epoch", func(t *testing.T) {
			tc := traffic.Config{
				Users: 16, ArrivalRate: 4, Duration: 10 * time.Second, EpochInterval: 10 * time.Second,
				ThinkTime: time.Second, SessionVisits: 2,
			}.WithDefaults()
			u, err := NewUniverse(UniverseConfig{Seed: 13, Corpus: corpus, EdgeTTL: tc.CacheTTL})
			if err != nil {
				t.Fatal(err)
			}
			defer u.Close()
			acc := sketch.NewAccumulator(sketch.DefaultAlpha)
			sh := &shard{
				job: shardJob{mode: mode}, tc: &tc, corpus: corpus,
				userMem: make(map[int][]string), rep: &traffic.Report{},
				sink: visitSink{
					probe: "arena/0", fold: trafficVisitSample,
					group: acc.Group(sketch.Key{Mode: mode.String(), Vantage: "arena"}),
				},
			}
			en := &trafficEngine{sh: sh, u: u, endAbs: tc.EpochInterval}
			src := seqrand.New(13).Sub("traffic")
			for i, a := range traffic.Arrivals(src, 0, tc.ArrivalRate, tc.Users, tc, 0, tc.EpochInterval) {
				user := a.User
				sess := traffic.NewSession(src.Stream("session", "0", seqrand.Label("a", i)), len(corpus.Pages), tc)
				u.Sched.After(a.At, func() { en.startSession(user, sess) })
			}
			if _, err := u.Sched.Run(); err != nil {
				t.Fatal(err)
			}
			if sh.rep.Counters.VisitsCompleted < 10 || en.inFlight != 0 {
				t.Fatalf("epoch completed %d visits with %d in flight; want a drained, busy epoch",
					sh.rep.Counters.VisitsCompleted, en.inFlight)
			}
			if st := u.Pools().Arena.Stats(); st.InUse != 0 {
				t.Fatalf("arena in use %d after the epoch drained, want 0 (gets %d, puts %d)", st.InUse, st.Gets, st.Puts)
			}
			if h := u.Pools().TCP.Held(); h != 0 {
				t.Fatalf("%d send-array holds outstanding after the epoch drained, want 0", h)
			}
			t.Logf("mode %s: %d visits in one epoch, arena gets=puts=%d", mode, sh.rep.Counters.VisitsCompleted, u.Pools().Arena.Stats().Gets)
		})
	}
}

// TestConcurrentCampaignsShareTopology runs two campaigns concurrently
// against one shared Topology while their shards' universes rewind
// per-visit arenas — the surface the race detector must clear: the
// topology is read-only after construction, and every mutable pool is
// confined to its own universe's scheduler goroutine.
func TestConcurrentCampaignsShareTopology(t *testing.T) {
	corpus := webgen.Generate(webgen.Config{Seed: 21, NumPages: 8, MeanResources: 6})
	topo := NewTopology(corpus)
	cfg := func(seed uint64) CampaignConfig {
		return CampaignConfig{
			Seed:             seed,
			Corpus:           corpus,
			Topology:         topo,
			ProbesPerVantage: 1,
			PagesPerShard:    3,
			Workers:          2,
		}
	}

	// Inline (one-worker) references first, then the same campaigns
	// concurrently.
	want := make(map[uint64]string)
	for _, seed := range []uint64{101, 202} {
		ref := cfg(seed)
		ref.Workers = 1
		ds, err := RunCampaign(ref)
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = string(harJSON(t, ds))
	}

	var wg sync.WaitGroup
	got := make(map[uint64]string)
	errs := make(map[uint64]error)
	var mu sync.Mutex
	for _, seed := range []uint64{101, 202} {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			ds, err := RunCampaign(cfg(seed))
			var raw []byte
			if err == nil {
				raw, err = json.Marshal(ds.Logs)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[seed] = err
				return
			}
			got[seed] = string(raw)
		}(seed)
	}
	wg.Wait()
	for seed, err := range errs {
		t.Fatalf("seed %d: %v", seed, err)
	}
	for seed, w := range want {
		if got[seed] != w {
			t.Fatalf("seed %d: concurrent dataset differs from inline reference", seed)
		}
	}
}
