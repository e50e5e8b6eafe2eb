package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"h3cdn/internal/browser"
	"h3cdn/internal/core"
)

// outcome is what one campaign repetition simulated, read from the
// dataset's public fields.
type outcome struct {
	visits    int64 // completed visits: warm + measured (closed), VisitsCompleted (open)
	measured  int64 // measured visits folded into the metric sketches
	fetches   int64 // fetches the host executed: both passes of a closed loop
	entries   int64 // measured fetches attempted
	failed    int64 // fetches that exhausted their retry budget
	retries   int64 // browser re-fetches
	bytes     int64 // body bytes of the successful measured fetches
	generated int64 // open loop: visits the arrival process generated
	shed      int64 // open loop: visits shed at MaxInFlight
	events    int64 // scheduler events executed
	digest    string
}

// attempted counts the run's operations: fetches attempted plus visits
// shed before they could fetch anything.
func (o outcome) attempted() int64 { return o.entries + o.shed }

// failures counts failed fetches plus shed visits.
func (o outcome) failures() int64 { return o.failed + o.shed }

// fetchSuccessShare is 1 − failed/attempted fetches.
func (o outcome) fetchSuccessShare() float64 { return 1 - ratio(o.failed, o.entries) }

// visitAdmitShare is 1 − shed/generated visits; closed loops shed none.
func (o outcome) visitAdmitShare() float64 {
	if o.generated == 0 {
		return 1
	}
	return 1 - ratio(o.shed, o.generated)
}

func newOutcome(ds *core.Dataset, open bool) (outcome, error) {
	var o outcome
	for _, k := range ds.Metrics.Keys() {
		g := ds.Metrics.Lookup(k)
		o.entries += g.Entries.Value()
		o.failed += g.Failed.Value()
		o.retries += g.Retries.Value()
		o.bytes += g.Bytes.Value()
	}
	o.measured = ds.Stats.PagesFolded
	o.events = ds.Stats.Events
	if open {
		c := ds.Stats.Traffic
		o.visits = c.VisitsCompleted
		o.fetches = o.entries
		o.generated = c.VisitsGenerated
		o.shed = c.VisitsShed
	} else {
		// The warm pass loads every page the measured pass loads, with
		// one fetch per resource in both.
		o.visits = 2 * ds.Stats.PagesFolded
		o.fetches = 2 * o.entries
	}
	var err error
	o.digest, err = digest(ds, open)
	return o, err
}

// add accumulates the outcome of another campaign of the same
// repetition; the combined digest hashes the campaigns' digests in order.
func (o *outcome) add(p outcome) {
	o.visits += p.visits
	o.measured += p.measured
	o.fetches += p.fetches
	o.entries += p.entries
	o.failed += p.failed
	o.retries += p.retries
	o.bytes += p.bytes
	o.generated += p.generated
	o.shed += p.shed
	o.events += p.events
	if o.digest == "" {
		o.digest = p.digest
		return
	}
	sum := sha256.Sum256([]byte(o.digest + p.digest))
	o.digest = hex.EncodeToString(sum[:])
}

// digest hashes a repetition's simulated output: the serialized dataset
// of a closed-loop campaign; the metric sketches, traffic report and
// event count of an open-loop one (it retains no PageLogs).
func digest(ds *core.Dataset, open bool) (string, error) {
	h := sha256.New()
	if !open {
		if err := ds.SaveJSON(h); err != nil {
			return "", err
		}
		return hex.EncodeToString(h.Sum(nil)), nil
	}
	enc := json.NewEncoder(h)
	if err := enc.Encode(ds.Metrics); err != nil {
		return "", fmt.Errorf("digest metrics: %w", err)
	}
	if err := enc.Encode(ds.Traffic); err != nil {
		return "", fmt.Errorf("digest traffic: %w", err)
	}
	fmt.Fprintf(h, "events=%d\n", ds.Stats.Events)
	return hex.EncodeToString(h.Sum(nil)), nil
}

//go:embed expected.json
var expectedJSON []byte

// expected pins each workload's output digest at the recorded seed.
type expected struct {
	Seed   uint64            `json:"seed"`
	SHA256 map[string]string `json:"sha256"`
}

func loadExpected() (expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return e, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

// checkDigest verifies a repetition's combined digest: at the recorded
// seed it must equal the pinned one, and every repetition must
// reproduce the first.
func checkDigest(res *result, w workload, got, first string, seed uint64, want expected) {
	if got != first {
		res.fail("repetition digest %s differs from the first repetition's %s", got, first)
	}
	if seed == want.Seed {
		if pinned := want.SHA256[w.name]; got != pinned {
			res.fail("output digest %s at seed %d, pinned %s", got, seed, pinned)
		}
	}
}

// checkCampaign verifies the invariants one campaign must satisfy at
// any seed.
func checkCampaign(res *result, w workload, cfg core.CampaignConfig, ds *core.Dataset, o outcome) {
	if o.entries <= 0 {
		res.fail("no fetches attempted")
	}
	if got := int64(ds.Metrics.Pages()); got != o.measured {
		res.fail("sketches hold %d pages, campaign folded %d", got, o.measured)
	}
	if w.open {
		c := ds.Stats.Traffic
		if c.VisitsGenerated != c.VisitsCompleted+c.VisitsShed {
			res.fail("generated %d != completed %d + shed %d", c.VisitsGenerated, c.VisitsCompleted, c.VisitsShed)
		}
		if o.measured != c.VisitsCompleted {
			res.fail("folded %d pages, completed %d visits", o.measured, c.VisitsCompleted)
		}
		return
	}
	if want := expectedMeasured(cfg, len(ds.Corpus.Pages)); o.measured != want {
		res.fail("folded %d pages, want %d measured visits", o.measured, want)
	}
	for mode, log := range ds.Logs {
		for i := range log.Pages {
			for j := range log.Pages[i].Entries {
				e := &log.Pages[i].Entries[j]
				if e.SSL < 0 || e.SSL > e.Connect {
					res.fail("%s %s entry %d: SSL %v outside [0, Connect %v]", mode, log.Pages[i].Site, j, e.SSL, e.Connect)
					return
				}
			}
		}
	}
}

// expectedMeasured is the closed-loop measured-visit count: every page
// once per mode and probe.
func expectedMeasured(cfg core.CampaignConfig, pages int) int64 {
	return int64(pages * len(cfg.Modes) * len(cfg.Vantages) * cfg.ProbesPerVantage)
}

// computeArtifacts derives Table II and Figs. 2–7 from a closed-loop
// dataset, the analysis step the census timed section ends with.
func computeArtifacts(ds *core.Dataset) {
	core.ComputeTable2(ds)
	core.ComputeFigure2(ds)
	core.ComputeFigure3(ds)
	core.ComputeFigure4(ds)
	core.ComputeFigure5(ds)
	core.ComputeFigure6a(ds)
	core.ComputeFigure6b(ds)
	core.ComputeFigure7ab(ds)
	core.ComputeFigure7c(ds)
}

// pltNote records the simulated PLT quantiles of each mode for the
// record; a perf change must leave them unchanged.
func pltNote(res *result, ds *core.Dataset) {
	for _, mode := range []browser.Mode{browser.ModeH2, browser.ModeH3} {
		g := ds.Metrics.ModeGroup(mode.String())
		if g == nil {
			continue
		}
		res.note("sim %s PLT p50 %.3f ms, p95 %.3f ms over %d measured visits", mode, g.PLT.Query(0.5), g.PLT.Query(0.95), g.Pages)
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
