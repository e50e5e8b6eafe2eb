package core

import (
	"testing"

	"h3cdn/internal/browser"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

// checkHARInvariants is the HAR 1.2 timing property test, run over every
// golden dataset: for each entry 0 ≤ SSL ≤ Connect (SSL is the TLS
// portion *of* Connect, never additional to it — the invariant the
// paper's reuse/resumption detection leans on), no negative phase, and
// reused connections report zero handshake time. The 0-RTT resumption
// path is the historical offender: a resumed QUIC handshake finishing in
// "zero" round trips must still be pinned inside [0, Connect].
func checkHARInvariants(t *testing.T, ds *Dataset) {
	t.Helper()
	entries := 0
	for mode, log := range ds.Logs {
		for pi := range log.Pages {
			page := &log.Pages[pi]
			for ei := range page.Entries {
				e := &page.Entries[ei]
				entries++
				if e.SSL < 0 || e.Connect < 0 || e.Blocked < 0 || e.Wait < 0 || e.Receive < 0 {
					t.Fatalf("%s %s %s: negative timing %+v", mode, page.Site, e.URL, e)
				}
				if e.SSL > e.Connect {
					t.Fatalf("%s %s %s: SSL %v > Connect %v (HAR 1.2: SSL ⊆ Connect)",
						mode, page.Site, e.URL, e.SSL, e.Connect)
				}
				if e.ReusedConn && (e.Connect != 0 || e.SSL != 0) {
					t.Fatalf("%s %s %s: reused connection with Connect %v / SSL %v",
						mode, page.Site, e.URL, e.Connect, e.SSL)
				}
			}
		}
	}
	if entries == 0 {
		t.Fatal("dataset has no entries to check")
	}
}

// TestHARInvariantsUnderResumption drives the invariant through the
// consecutive-visit protocol, where TLS/QUIC session caches survive
// across pages and 0-RTT resumption produces the degenerate handshakes
// most likely to break SSL ⊆ Connect.
func TestHARInvariantsUnderResumption(t *testing.T) {
	cfg := CampaignConfig{
		Seed:             77,
		CorpusConfig:     webgen.Config{NumPages: 12},
		Vantages:         vantage.Points()[:1],
		ProbesPerVantage: 1,
		Modes:            []browser.Mode{browser.ModeH2, browser.ModeH3},
		Consecutive:      true,
		Workers:          1,
	}
	ds, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkHARInvariants(t, ds)
	resumed := 0
	for _, log := range ds.Logs {
		for pi := range log.Pages {
			resumed += log.Pages[pi].ResumedConns
		}
	}
	if resumed == 0 {
		t.Fatal("consecutive campaign produced no resumed connections — the 0-RTT path never ran")
	}
}
