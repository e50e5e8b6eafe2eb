package core

import (
	"testing"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

// smallCampaign runs a reduced campaign for tests: fewer pages, one
// vantage, one probe.
func smallCampaign(t *testing.T, mutate func(*CampaignConfig)) *Dataset {
	t.Helper()
	cfg := CampaignConfig{
		Seed:             7,
		CorpusConfig:     webgen.Config{NumPages: 12, MeanResources: 40},
		Vantages:         vantage.Points()[:1],
		ProbesPerVantage: 1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ds, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestCampaignEndToEnd(t *testing.T) {
	ds := smallCampaign(t, nil)
	for _, mode := range []browser.Mode{browser.ModeH2, browser.ModeH3} {
		log := ds.Logs[mode]
		if log == nil || len(log.Pages) != 12 {
			t.Fatalf("%v: %d pages", mode, len(log.Pages))
		}
		for _, p := range log.Pages {
			if p.PLT <= 0 {
				t.Fatalf("%v %s: PLT %v", mode, p.Site, p.PLT)
			}
			if len(p.Entries) == 0 {
				t.Fatalf("%v %s: no entries", mode, p.Site)
			}
			for _, e := range p.Entries {
				if e.Failed {
					t.Fatalf("%v %s: entry %s failed: %s", mode, p.Site, e.URL, e.Error)
				}
				if e.Status != 200 {
					t.Fatalf("%v %s: entry %s status %d", mode, p.Site, e.URL, e.Status)
				}
				if e.Wait <= 0 {
					t.Fatalf("%v %s: entry %s wait %v", mode, p.Site, e.URL, e.Wait)
				}
			}
		}
	}
}

func TestCampaignH3ModeUsesH3(t *testing.T) {
	ds := smallCampaign(t, nil)
	h3Count, total := 0, 0
	for _, p := range ds.Logs[browser.ModeH3].Pages {
		for _, e := range p.Entries {
			total++
			if e.Protocol == "h3" {
				h3Count++
			}
		}
	}
	if h3Count == 0 {
		t.Fatal("H3 mode produced zero H3 requests")
	}
	// Table II ballpark: roughly a third of requests go H3.
	frac := float64(h3Count) / float64(total)
	if frac < 0.15 || frac > 0.60 {
		t.Fatalf("H3 request fraction = %.2f, want roughly 0.33", frac)
	}
	// H2 mode must contain no H3 entries at all.
	for _, p := range ds.Logs[browser.ModeH2].Pages {
		for _, e := range p.Entries {
			if e.Protocol == "h3" {
				t.Fatal("H2 mode produced an H3 request")
			}
		}
	}
}

func TestCampaignH3CompetitiveOnCleanPath(t *testing.T) {
	// Lossless network: H3 and H2 land within a few percent of each
	// other (Cloudflare's own report: H3 1-4% worse PLT than H2 on
	// clean paths). The H3 advantage under realistic loss is asserted
	// at fixture scale in shapes_test.go.
	ds := smallCampaign(t, func(c *CampaignConfig) { c.LossRate = -1 })
	var h2Sum, h3Sum time.Duration
	h2Pages := ds.Logs[browser.ModeH2].Pages
	h3Pages := ds.Logs[browser.ModeH3].Pages
	for i := range h2Pages {
		h2Sum += h2Pages[i].PLT
	}
	for i := range h3Pages {
		h3Sum += h3Pages[i].PLT
	}
	ratio := float64(h3Sum) / float64(h2Sum)
	if ratio > 1.06 {
		t.Fatalf("clean-path H3/H2 PLT ratio = %.3f, want within ~5%%", ratio)
	}
	if ratio < 0.80 {
		t.Fatalf("clean-path H3/H2 PLT ratio = %.3f, implausibly fast", ratio)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	a := smallCampaign(t, nil)
	b := smallCampaign(t, nil)
	for _, mode := range []browser.Mode{browser.ModeH2, browser.ModeH3} {
		pa, pb := a.Logs[mode].Pages, b.Logs[mode].Pages
		for i := range pa {
			if pa[i].PLT != pb[i].PLT {
				t.Fatalf("%v page %d: PLT %v vs %v", mode, i, pa[i].PLT, pb[i].PLT)
			}
		}
	}
}

// TestCampaignSequentialMatchesParallel compares a one-worker campaign
// (shards inline on the calling goroutine) with the default pool.
func TestCampaignSequentialMatchesParallel(t *testing.T) {
	a := smallCampaign(t, nil)
	b := smallCampaign(t, func(c *CampaignConfig) { c.Workers = 1 })
	pa, pb := a.Logs[browser.ModeH3].Pages, b.Logs[browser.ModeH3].Pages
	for i := range pa {
		if pa[i].PLT != pb[i].PLT {
			t.Fatalf("page %d: parallel %v vs sequential %v", i, pa[i].PLT, pb[i].PLT)
		}
	}
}

func TestCampaignConsecutiveResumesConnections(t *testing.T) {
	standard := smallCampaign(t, nil)
	consecutive := smallCampaign(t, func(c *CampaignConfig) { c.Consecutive = true })

	count := func(ds *Dataset) int {
		n := 0
		for _, p := range ds.Logs[browser.ModeH3].Pages {
			n += p.ResumedConns
		}
		return n
	}
	// Standard protocol clears session caches after every page; only
	// rare intra-page resumption (parallel H1 dials after the first
	// handshake) remains. Consecutive visits must resume far more.
	std, cons := count(standard), count(consecutive)
	if cons == 0 {
		t.Fatal("consecutive protocol resumed no connections")
	}
	if cons <= 3*std {
		t.Fatalf("consecutive resumption (%d) not well above standard (%d)", cons, std)
	}
}

func TestCampaignReuseCounts(t *testing.T) {
	ds := smallCampaign(t, nil)
	reused := func(mode browser.Mode) int {
		n := 0
		for _, p := range ds.Logs[mode].Pages {
			n += p.ReusedConns
		}
		return n
	}
	h2, h3 := reused(browser.ModeH2), reused(browser.ModeH3)
	if h2 == 0 || h3 == 0 {
		t.Fatalf("no connection reuse: h2=%d h3=%d", h2, h3)
	}
	// §VI-C: H2 (coalesced) reuses more connections than the H3 run.
	if h2 <= h3 {
		t.Fatalf("H2 reuse (%d) not above H3 reuse (%d)", h2, h3)
	}
}

func TestUniverseRejectsNilCorpus(t *testing.T) {
	if _, err := NewUniverse(UniverseConfig{}); err == nil {
		t.Fatal("nil corpus accepted")
	}
}
