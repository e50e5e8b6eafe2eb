package core

import (
	"bytes"
	"sort"
	"testing"

	"h3cdn/internal/analysis"
	"h3cdn/internal/browser"
	"h3cdn/internal/har"
	"h3cdn/internal/sketch"
	"h3cdn/internal/trace"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

// exactMedianBracket returns the two order statistics the sketch's
// rank-rounded median may legally land between, widened by α on each
// side — the bound a DDSketch median must satisfy against linearly
// interpolated exact medians.
func exactMedianBracket(plts []float64, alpha float64) (lo, hi float64) {
	s := append([]float64(nil), plts...)
	sort.Float64s(s)
	mid := (len(s) - 1) / 2
	lo, hi = s[mid], s[(len(s))/2]
	return lo * (1 - alpha), hi * (1 + alpha)
}

func modePLTs(ds *Dataset, mode browser.Mode) []float64 {
	pages := ds.Logs[mode].Pages
	out := make([]float64, len(pages))
	for i := range pages {
		out[i] = msOf(pages[i].PLT)
	}
	return out
}

// TestRetentionNone checks the bounded-memory path end to end: PageLogs
// are dropped, the sketches still cover every page, and sketch-derived
// medians agree with the exact medians of an identical RetainAll run
// within the documented error bound.
func TestRetentionNone(t *testing.T) {
	full := smallCampaign(t, func(c *CampaignConfig) { c.TracePhases = true })
	none := smallCampaign(t, func(c *CampaignConfig) {
		c.TracePhases = true
		c.Retention = har.Retention{Kind: har.RetainNone}
	})

	for _, mode := range []browser.Mode{browser.ModeH2, browser.ModeH3} {
		if n := len(none.Logs[mode].Pages); n != 0 {
			t.Fatalf("%v: RetainNone kept %d pages", mode, n)
		}
		if n := len(none.Phases[mode]); n != 0 {
			t.Fatalf("%v: RetainNone kept %d phase entries", mode, n)
		}
	}
	if none.Metrics == nil {
		t.Fatal("RetainNone dataset has no Metrics")
	}
	if got := none.Metrics.Pages(); got != 24 { // 12 pages × 2 modes
		t.Fatalf("folded %d pages, want 24", got)
	}
	if none.Stats.PagesFolded != 24 || none.Stats.PagesRetained != 0 {
		t.Fatalf("stats folded/retained = %d/%d, want 24/0",
			none.Stats.PagesFolded, none.Stats.PagesRetained)
	}
	if full.Stats.PagesRetained != 24 {
		t.Fatalf("RetainAll stats retained = %d, want 24", full.Stats.PagesRetained)
	}

	// Campaign-level accuracy: the sketch median of the RetainNone run
	// must bracket the exact retained-HAR median of the identical
	// RetainAll run.
	alpha := none.Metrics.Alpha()
	for _, mode := range []browser.Mode{browser.ModeH2, browser.ModeH3} {
		exact := modePLTs(full, mode)
		lo, hi := exactMedianBracket(exact, alpha)
		got, approx, ok := none.PLTMedianMs(mode)
		if !ok || !approx {
			t.Fatalf("%v: PLTMedianMs ok=%v approx=%v, want sketch path", mode, ok, approx)
		}
		if got < lo || got > hi {
			t.Fatalf("%v: sketch median %.3f outside exact bracket [%.3f, %.3f]", mode, got, lo, hi)
		}
		// The RetainAll dataset answers exactly.
		want, approx, ok := full.PLTMedianMs(mode)
		if !ok || approx {
			t.Fatalf("%v: full dataset PLTMedianMs ok=%v approx=%v, want exact path", mode, ok, approx)
		}
		if want != analysis.Median(exact) {
			t.Fatalf("%v: exact path %.3f != Median %.3f", mode, want, analysis.Median(exact))
		}
	}

	// Phase report answers from the sketches, means exact.
	rows, err := ComputePhaseReport(none)
	if err != nil {
		t.Fatal(err)
	}
	fullRows, err := ComputePhaseReport(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(fullRows) {
		t.Fatalf("%d sketch rows vs %d exact rows", len(rows), len(fullRows))
	}
	for i := range rows {
		r, f := rows[i], fullRows[i]
		if !r.Approx || f.Approx {
			t.Fatalf("row %d: approx flags %v/%v", i, r.Approx, f.Approx)
		}
		if r.Mode != f.Mode || r.Visits != f.Visits {
			t.Fatalf("row %d: %v/%d vs %v/%d", i, r.Mode, r.Visits, f.Mode, f.Visits)
		}
		// Means come from integer nanosecond sums: exact in both paths.
		for _, pair := range [][2]float64{
			{r.Resolve, f.Resolve}, {r.Connect, f.Connect}, {r.Handshake, f.Handshake},
			{r.Stall, f.Stall}, {r.Transfer, f.Transfer}, {r.Other, f.Other}, {r.MeanPLT, f.MeanPLT},
		} {
			if diff := pair[0] - pair[1]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("row %d (%v): sketch mean %.6f != exact mean %.6f", i, r.Mode, pair[0], pair[1])
			}
		}
		// The exact median interpolates between two order statistics
		// while the sketch answers at a rounded rank, so compare against
		// the α-widened bracket of those order statistics.
		totals := make([]float64, len(full.Phases[r.Mode]))
		for j, pb := range full.Phases[r.Mode] {
			totals[j] = msOf(pb.Total())
		}
		lo, hi := exactMedianBracket(totals, sketch.DefaultAlpha)
		if r.MedianPLT < lo || r.MedianPLT > hi {
			t.Fatalf("row %d (%v): sketch median %.3f outside exact bracket [%.3f, %.3f]", i, r.Mode, r.MedianPLT, lo, hi)
		}
	}

	// Figure 9 degrades to the sketch estimator instead of erroring.
	s9, err := ComputeFigure9Series(none, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !s9.Approx || len(s9.Points) != 0 {
		t.Fatalf("Fig9 approx=%v points=%d, want sketch fallback", s9.Approx, len(s9.Points))
	}
	exact9, err := ComputeFigure9Series(full, 0)
	if err != nil {
		t.Fatal(err)
	}
	if exact9.Approx {
		t.Fatal("full dataset Fig9 took the sketch path")
	}
}

// TestRetentionSample checks the deterministic reservoir path: a stable
// subset of PageLogs survives, aligned with its phase entries.
func TestRetentionSample(t *testing.T) {
	full := smallCampaign(t, func(c *CampaignConfig) { c.TracePhases = true })
	mut := func(c *CampaignConfig) {
		c.TracePhases = true
		c.Retention = har.Retention{Kind: har.RetainSample, Sample: 5}
	}
	a := smallCampaign(t, mut)
	b := smallCampaign(t, mut)

	if !bytes.Equal(harJSON(t, a), harJSON(t, b)) {
		t.Fatal("sampled retention is not deterministic across runs")
	}
	for _, mode := range []browser.Mode{browser.ModeH2, browser.ModeH3} {
		pages := a.Logs[mode].Pages
		if len(pages) != 5 { // one 12-page shard per mode, capacity 5
			t.Fatalf("%v: %d retained pages, want 5", mode, len(pages))
		}
		if len(a.Phases[mode]) != len(pages) {
			t.Fatalf("%v: %d phases for %d pages", mode, len(a.Phases[mode]), len(pages))
		}
		// Every retained page is one of the full run's pages, in corpus
		// order, with its phase attribution still aligned: the phase
		// buckets partition the page's PLT.
		fullSites := make(map[string]int)
		for i, p := range full.Logs[mode].Pages {
			fullSites[p.Site] = i
		}
		prev := -1
		for i, p := range pages {
			idx, known := fullSites[p.Site]
			if !known {
				t.Fatalf("%v: retained page %q not in the full run", mode, p.Site)
			}
			if idx <= prev {
				t.Fatalf("%v: retained pages out of corpus order at %d", mode, i)
			}
			prev = idx
			if full.Logs[mode].Pages[idx].PLT != p.PLT {
				t.Fatalf("%v %s: retained PLT differs from full run", mode, p.Site)
			}
			if got := a.Phases[mode][i].Total(); got != p.PLT {
				t.Fatalf("%v %s: phase total %v != PLT %v (misaligned phases)", mode, p.Site, got, p.PLT)
			}
		}
	}
	if a.Stats.PagesFolded != 24 || a.Stats.PagesRetained != 10 {
		t.Fatalf("stats folded/retained = %d/%d, want 24/10", a.Stats.PagesFolded, a.Stats.PagesRetained)
	}
	// Sketches cover all pages regardless of sampling.
	if a.Metrics.Pages() != 24 {
		t.Fatalf("folded %d pages, want 24", a.Metrics.Pages())
	}
	// Partial retention answers medians from the sketch, not the sample.
	if _, approx, ok := a.PLTMedianMs(browser.ModeH3); !ok || !approx {
		t.Fatalf("sampled dataset PLTMedianMs approx=%v ok=%v, want sketch path", approx, ok)
	}
}

// TestRetentionWorkerDeterminism extends the worker-count byte-identity
// guarantee to the new retention paths.
func TestRetentionWorkerDeterminism(t *testing.T) {
	for _, ret := range []har.Retention{
		{Kind: har.RetainSample, Sample: 3},
		{Kind: har.RetainNone},
	} {
		var ref []byte
		var refMedian float64
		for _, workers := range []int{1, 2, 4} {
			cfg := CampaignConfig{
				Seed:             31,
				CorpusConfig:     webgen.Config{NumPages: 10, MeanResources: 30},
				Vantages:         vantage.Points()[:2],
				ProbesPerVantage: 1,
				PagesPerShard:    4, // 3 shards per probe: exercises multi-shard stitch
				Retention:        ret,
			}
			cfg.Workers = workers
			ds, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := harJSON(t, ds)
			med := ds.Metrics.ModeGroup(browser.ModeH3.String()).MedianPLTMs()
			if ref == nil {
				ref, refMedian = got, med
				continue
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("retention %v: dataset differs at workers=%d", ret, workers)
			}
			if med != refMedian {
				t.Fatalf("retention %v: sketch median differs at workers=%d", ret, workers)
			}
		}
	}
}

// TestStitchRetainedMixedShards covers the stitcher against shards that
// contribute no PageLogs: nil and non-nil shard slices interleave and
// the result concatenates the survivors in job order.
func TestStitchRetainedMixedShards(t *testing.T) {
	jobs := []shardJob{
		{mode: browser.ModeH2}, {mode: browser.ModeH3},
		{mode: browser.ModeH2}, {mode: browser.ModeH3},
	}
	ds := &Dataset{
		Logs: map[browser.Mode]*har.Log{
			browser.ModeH2: {},
			browser.ModeH3: {},
		},
		Phases: map[browser.Mode][]trace.PhaseBreakdown{},
	}
	results := []shardResult{
		{pages: []har.PageLog{{Site: "a1"}, {Site: "a2"}}, phases: []trace.PhaseBreakdown{{Truncated: true}, {}}},
		{}, // an empty-retention shard in the middle
		{pages: []har.PageLog{{Site: "c1"}}, phases: []trace.PhaseBreakdown{{}}},
		{pages: []har.PageLog{{Site: "d1"}}, phases: []trace.PhaseBreakdown{{}}},
	}
	stitchRetained(ds, jobs, results)
	h2 := ds.Logs[browser.ModeH2].Pages
	if len(h2) != 3 || h2[0].Site != "a1" || h2[1].Site != "a2" || h2[2].Site != "c1" {
		t.Fatalf("h2 stitch: %+v", h2)
	}
	h3 := ds.Logs[browser.ModeH3].Pages
	if len(h3) != 1 || h3[0].Site != "d1" {
		t.Fatalf("h3 stitch: %+v", h3)
	}
	if len(ds.Phases[browser.ModeH2]) != 3 || !ds.Phases[browser.ModeH2][0].Truncated {
		t.Fatalf("h2 phases: %+v", ds.Phases[browser.ModeH2])
	}
	// Without phase tracking the results carry no phases: must not panic.
	for i := range results {
		results[i].phases = nil
	}
	ds2 := &Dataset{Logs: map[browser.Mode]*har.Log{browser.ModeH2: {}, browser.ModeH3: {}}}
	stitchRetained(ds2, jobs, results)
	if len(ds2.Logs[browser.ModeH2].Pages) != 3 {
		t.Fatal("nil-phase stitch dropped pages")
	}
}

// TestRetentionInvalidConfig pins the validation error path.
func TestRetentionInvalidConfig(t *testing.T) {
	cfg := CampaignConfig{
		Seed:             1,
		CorpusConfig:     webgen.Config{NumPages: 2, MeanResources: 5},
		Vantages:         vantage.Points()[:1],
		ProbesPerVantage: 1,
		Retention:        har.Retention{Kind: har.RetainSample}, // missing size
	}
	if _, err := RunCampaign(cfg); err == nil {
		t.Fatal("invalid retention accepted")
	}
}
