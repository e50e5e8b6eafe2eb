package core

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/har"
	"h3cdn/internal/traffic"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

// smallTraffic is the test-scale population shape: enough sessions to
// exercise contention, small enough to run in seconds.
func smallTraffic() *traffic.Config {
	return &traffic.Config{
		Users:         40,
		ArrivalRate:   2,
		Duration:      30 * time.Second,
		EpochInterval: 10 * time.Second,
		CacheTTL:      15 * time.Second,
		ThinkTime:     2 * time.Second,
		SessionVisits: 3,
	}
}

// trafficCampaign runs a reduced population campaign.
func trafficCampaign(t *testing.T, mutate func(*CampaignConfig)) *Dataset {
	t.Helper()
	ds, err := RunCampaign(trafficCampaignConfig(mutate))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func trafficCampaignConfig(mutate func(*CampaignConfig)) CampaignConfig {
	cfg := CampaignConfig{
		Seed:             7,
		CorpusConfig:     webgen.Config{NumPages: 12, MeanResources: 20},
		Vantages:         vantage.Points()[:1],
		ProbesPerVantage: 1,
		Traffic:          smallTraffic(),
		Workers:          1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

func TestTrafficCampaignEndToEnd(t *testing.T) {
	ds := trafficCampaign(t, nil)
	rep := ds.Traffic
	if rep == nil {
		t.Fatal("no traffic report on an open-loop campaign")
	}
	c := rep.Counters
	if c.SessionsStarted == 0 || c.VisitsCompleted == 0 {
		t.Fatalf("no traffic ran: %+v", c)
	}
	// The open-loop bookkeeping invariant: every generated visit either
	// completed or was shed at the in-flight bound.
	if c.VisitsGenerated != c.VisitsCompleted+c.VisitsShed {
		t.Fatalf("generated %d ≠ completed %d + shed %d", c.VisitsGenerated, c.VisitsCompleted, c.VisitsShed)
	}
	if ds.Stats.Traffic != c {
		t.Fatalf("CampaignStats.Traffic %+v ≠ report counters %+v", ds.Stats.Traffic, c)
	}
	// Shared caches must actually be contended: both hits and misses.
	if c.CacheHits == 0 || c.CacheMisses == 0 {
		t.Fatalf("cache never contended: hits=%d misses=%d", c.CacheHits, c.CacheMisses)
	}
	if len(rep.Epochs) != 3 {
		t.Fatalf("%d epoch rows, want 3", len(rep.Epochs))
	}
	// Connections are visit-scoped but tickets are session-scoped, so
	// multi-visit sessions must produce actual 0-RTT resumptions — the
	// emergent resumption fraction is strictly inside (0, 1).
	if c.ConnsOpened == 0 {
		t.Fatal("no connections accounted")
	}
	if c.ResumedConns == 0 {
		t.Fatal("no resumed connections: session tickets never reused across visits")
	}
	if f := rep.ResumptionFraction(); f <= 0 || f >= 1 {
		t.Fatalf("resumption fraction %v, want strictly inside (0, 1)", f)
	}
	// Retained logs (RetainAll default) match the completed visit count,
	// across both modes.
	var retained int
	for _, log := range ds.Logs {
		retained += len(log.Pages)
		for i := range log.Pages {
			if log.Pages[i].PLT <= 0 {
				t.Fatalf("visit %d: PLT %v", i, log.Pages[i].PLT)
			}
		}
	}
	if int64(retained) != c.VisitsCompleted {
		t.Fatalf("retained %d logs for %d completed visits", retained, c.VisitsCompleted)
	}
	if ds.Stats.PagesFolded != c.VisitsCompleted {
		t.Fatalf("folded %d, completed %d", ds.Stats.PagesFolded, c.VisitsCompleted)
	}
	// The warmth split covers every folded visit that touched an edge.
	for _, mode := range []browser.Mode{browser.ModeH2, browser.ModeH3} {
		g := ds.Metrics.ModeGroup(mode.String())
		if g == nil {
			t.Fatalf("%v: no metrics group", mode)
		}
		if g.WarmPages == 0 {
			t.Fatalf("%v: no warm visits despite cache hits", mode)
		}
		if g.CacheHits.Value() == 0 {
			t.Fatalf("%v: per-visit cache hits never folded", mode)
		}
	}
}

func TestTrafficRetainNoneBoundsDataset(t *testing.T) {
	ds := trafficCampaign(t, func(c *CampaignConfig) {
		c.Retention = har.Retention{Kind: har.RetainNone}
	})
	for mode, log := range ds.Logs {
		if len(log.Pages) != 0 {
			t.Fatalf("%v: %d pages retained under RetainNone", mode, len(log.Pages))
		}
	}
	if ds.Stats.PagesRetained != 0 {
		t.Fatalf("PagesRetained = %d", ds.Stats.PagesRetained)
	}
	// Metrics and the traffic report still cover the whole population.
	if ds.Traffic.Counters.VisitsCompleted == 0 || ds.Metrics.Pages() == 0 {
		t.Fatal("RetainNone starved metrics")
	}
}

// TestTrafficShardDecomposition pins the user partition: shards slice
// the population, every shard sees the full corpus.
func TestTrafficShardDecomposition(t *testing.T) {
	cfg := CampaignConfig{
		Seed:             99,
		Vantages:         vantage.Points()[:1],
		ProbesPerVantage: 1,
		Modes:            []browser.Mode{browser.ModeH3},
		Traffic:          &traffic.Config{Users: 10, UsersPerShard: 4, ArrivalRate: 1, Duration: time.Second},
	}
	corpus := webgen.Generate(webgen.Config{NumPages: 12, MeanResources: 5, Seed: 99})
	jobs := shardCampaign(cfg, corpus)
	if len(jobs) != 3 {
		t.Fatalf("%d jobs, want 3", len(jobs))
	}
	wantRanges := [][2]int{{0, 4}, {4, 8}, {8, 10}}
	for i, job := range jobs {
		if job.lo != wantRanges[i][0] || job.hi != wantRanges[i][1] || job.shard != i {
			t.Fatalf("job %d: shard %d range [%d,%d), want %v", i, job.shard, job.lo, job.hi, wantRanges[i])
		}
	}
}

func TestTrafficRejectsIncompatibleConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*CampaignConfig)
	}{
		{"consecutive", func(c *CampaignConfig) { c.Consecutive = true }},
		{"trace-phases", func(c *CampaignConfig) { c.TracePhases = true }},
		{"qlog", func(c *CampaignConfig) { c.QlogDir = t.TempDir() }},
		{"bad-traffic", func(c *CampaignConfig) { c.Traffic.Users = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := CampaignConfig{
				Seed:         7,
				CorpusConfig: webgen.Config{NumPages: 4, MeanResources: 4},
				Traffic:      smallTraffic(),
			}
			tc.mut(&cfg)
			if _, err := RunCampaign(cfg); err == nil {
				t.Fatal("incompatible traffic campaign accepted")
			}
		})
	}
}

func accJSONEqual(t *testing.T, a, b *Dataset) bool {
	t.Helper()
	ab, err := json.Marshal(a.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	return string(ab) == string(bb)
}

func TestPopCacheExperiment(t *testing.T) {
	base := CampaignConfig{
		Seed:             7,
		CorpusConfig:     webgen.Config{NumPages: 12, MeanResources: 10},
		Vantages:         vantage.Points()[:1],
		ProbesPerVantage: 1,
	}
	tc := traffic.Config{
		Users: 20, ArrivalRate: 1, Duration: 15 * time.Second,
		EpochInterval: 5 * time.Second, CacheTTL: 10 * time.Second,
		ThinkTime: time.Second, SessionVisits: 2,
	}
	rows, err := RunPopCache(base, tc, []int{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 2 sizes × 3 protocols
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Visits == 0 {
			t.Fatalf("users=%d mode %s: no visits", r.Users, r.Mode)
		}
		if r.HitRate <= 0 || r.HitRate >= 1 {
			t.Fatalf("users=%d mode %s: hit rate %v", r.Users, r.Mode, r.HitRate)
		}
		if r.ColdPages == 0 {
			t.Fatalf("users=%d mode %s: no cold visits in a TTL'd cache", r.Users, r.Mode)
		}
	}
	out := RenderPopCache(rows)
	for _, want := range []string{"users", "hit rate", "0-RTT", "h3", "http/1.1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render lacks %q:\n%s", want, out)
		}
	}

	// The sweep rejects malformed traffic shapes and sizes up front.
	if _, err := RunPopCache(base, traffic.Config{}, nil); err == nil {
		t.Fatal("empty traffic config accepted")
	}
	if _, err := RunPopCache(base, tc, []int{0}); err == nil {
		t.Fatal("zero population size accepted")
	}
}

// TestTrafficCheckpointResume kills a population campaign after every
// epoch (HaltAfterEpochs) and resumes it from its checkpoints until it
// completes, asserting the stitched-together run is byte-identical to an
// uninterrupted one — dataset, traffic report, and metric sketches.
func TestTrafficCheckpointResume(t *testing.T) {
	uninterrupted := trafficCampaign(t, nil)
	want := harJSON(t, uninterrupted)

	dir := t.TempDir()
	withCkpt := func(c *CampaignConfig) {
		c.Traffic.CheckpointDir = dir
		c.Traffic.HaltAfterEpochs = 1
	}
	// Three epochs, one per process "life": runs 1 and 2 halt after
	// writing their checkpoint, run 3 reaches the horizon.
	var final *Dataset
	for run := 0; run < 3; run++ {
		final = trafficCampaign(t, withCkpt)
	}
	if got := harJSON(t, final); string(got) != string(want) {
		t.Fatal("resumed dataset differs from uninterrupted run")
	}
	if !reflect.DeepEqual(final.Traffic, uninterrupted.Traffic) {
		t.Fatalf("resumed traffic report differs:\n%+v\n%+v", final.Traffic, uninterrupted.Traffic)
	}
	if !accJSONEqual(t, final, uninterrupted) {
		t.Fatal("resumed metric accumulator differs")
	}
	if final.Stats.Traffic != uninterrupted.Stats.Traffic {
		t.Fatalf("resumed stats differ: %+v vs %+v", final.Stats.Traffic, uninterrupted.Stats.Traffic)
	}

	// A fourth run finds every shard already at the horizon and returns
	// the checkpointed state verbatim — still byte-identical.
	again := trafficCampaign(t, withCkpt)
	if got := harJSON(t, again); string(got) != string(want) {
		t.Fatal("re-run after completion differs")
	}
}

// TestTrafficCheckpointRejectsOtherConfig halts a population campaign
// after its first epoch and resumes it under a changed shape. Each
// resume must fail, naming the checkpoint file and the shard's user
// range, instead of folding the saved state into a different campaign.
func TestTrafficCheckpointRejectsOtherConfig(t *testing.T) {
	cases := []struct {
		name          string
		first, resume func(*traffic.Config)
	}{
		{"epoch-and-rate", nil, func(tc *traffic.Config) {
			tc.EpochInterval = 5 * time.Second
			tc.ArrivalRate = 8
		}},
		// Shard [0,40) must not load the user memory of shard [0,20).
		{"users-per-shard",
			func(tc *traffic.Config) { tc.UsersPerShard = 20 },
			func(tc *traffic.Config) { tc.UsersPerShard = 40 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			withCkpt := func(mut func(*traffic.Config)) func(*CampaignConfig) {
				return func(c *CampaignConfig) {
					c.Traffic.CheckpointDir = dir
					c.Traffic.HaltAfterEpochs = 1
					if mut != nil {
						mut(c.Traffic)
					}
				}
			}
			trafficCampaign(t, withCkpt(tc.first))
			_, err := RunCampaign(trafficCampaignConfig(withCkpt(tc.resume)))
			if err == nil {
				t.Fatal("resume under a different config accepted")
			}
			for _, want := range []string{filepath.Join(dir, "traffic_"), "users [0,"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, want)
				}
			}
		})
	}
}
