package main

import (
	"strings"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/core"
	"h3cdn/internal/har"
	"h3cdn/internal/simnet"
	"h3cdn/internal/traffic"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

// Workload sizes. They set how long one repetition of a workload takes
// (a few host seconds on a 2-core machine), so a run of --seconds holds
// several repetitions and reports their medians.
const (
	censusPages = 128
	// popPages and popMeanResources give the population workload many
	// short visits; popHorizon sets its virtual-time length. Zipf page
	// popularity makes a handful of pages carry most visits, so one
	// corpus is a small sample of page costs: a repetition runs
	// popCampaigns independent populations, each over its own corpus.
	popPages         = 64
	popMeanResources = 12
	popHorizon       = 200 * time.Second
	popCampaigns     = 4
	// workers is the shard worker pool of every workload: the benchmark
	// machine has two cores.
	workers = 2
)

// workload is one named benchmark input. Every input — corpus and
// campaign randomness — is derived from the run seed.
type workload struct {
	name string
	// open is true for the open-loop population engine, false for the
	// closed-loop §III-B census protocol.
	open bool
	// campaigns is how many independent campaigns, each over its own
	// seed-derived corpus, one repetition runs.
	campaigns int
	corpus    func(seed uint64) webgen.Config
	// campaign builds the campaign config over a prebuilt corpus and
	// topology.
	campaign func(seed uint64, corpus *webgen.Corpus, topo *core.Topology) core.CampaignConfig
}

var workloads = []workload{
	{name: "census", campaigns: 1, corpus: censusCorpus, campaign: censusCampaign},
	{name: "bursty", campaigns: 1, corpus: censusCorpus, campaign: burstyCampaign},
	{name: "population", open: true, campaigns: popCampaigns, corpus: popCorpus, campaign: popCampaign},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func censusCorpus(seed uint64) webgen.Config {
	return webgen.Config{Seed: seed, NumPages: censusPages}
}

// censusCampaign is the §III-B protocol: 3 vantages × 1 probe × {H2,H3},
// a warm visit then a measured visit per page, ambient 0.3% i.i.d. loss,
// every PageLog retained.
func censusCampaign(seed uint64, corpus *webgen.Corpus, topo *core.Topology) core.CampaignConfig {
	return core.CampaignConfig{
		Seed:             seed,
		Corpus:           corpus,
		Topology:         topo,
		Modes:            []browser.Mode{browser.ModeH2, browser.ModeH3},
		Vantages:         vantage.Points(),
		ProbesPerVantage: 1,
		Workers:          workers,
		Retention:        har.Retention{Kind: har.RetainAll},
	}
}

// burstyRetries is the bursty workload's browser re-fetch budget. The
// default budget of 2 lets a few fetches per campaign fail outright
// under 2% bursty loss; 5 lets every fetch finish, so the workload
// measures recovery work rather than failures.
const burstyRetries = 5

// burstyImpairment is the impaired path of the bursty workload:
// Gilbert–Elliott 2% loss with mean burst 4, 2 ms jitter and 1%
// reordering held back 2 ms, on every client↔server path.
func burstyImpairment() *simnet.Impairment {
	im := simnet.GilbertElliott(0.02, 4)
	im.JitterMax = 2 * time.Millisecond
	im.ReorderRate = 0.01
	im.ReorderDelay = 2 * time.Millisecond
	return &im
}

func burstyCampaign(seed uint64, corpus *webgen.Corpus, topo *core.Topology) core.CampaignConfig {
	cfg := censusCampaign(seed, corpus, topo)
	cfg.Impairment = burstyImpairment()
	cfg.FetchRetries = burstyRetries
	return cfg
}

func popCorpus(seed uint64) webgen.Config {
	return webgen.Config{Seed: seed, NumPages: popPages, MeanResources: popMeanResources}
}

// popTraffic is the population shape of core's BenchmarkPopulationCampaign:
// 128 users per mode in 64-user shards, Poisson arrivals at 2 sessions/s,
// 3 visits per session, 2 s think time, 30 s TTL and 30 s epochs.
func popTraffic() traffic.Config {
	return traffic.Config{
		Users:         128,
		UsersPerShard: 64,
		ArrivalRate:   2,
		SessionVisits: 3,
		ThinkTime:     2 * time.Second,
		CacheTTL:      30 * time.Second,
		EpochInterval: 30 * time.Second,
		Duration:      popHorizon,
	}
}

func popCampaign(seed uint64, corpus *webgen.Corpus, topo *core.Topology) core.CampaignConfig {
	tc := popTraffic()
	return core.CampaignConfig{
		Seed:             seed,
		Corpus:           corpus,
		Topology:         topo,
		Modes:            []browser.Mode{browser.ModeH2, browser.ModeH3},
		Vantages:         vantage.Points()[:1],
		ProbesPerVantage: 1,
		Workers:          workers,
		Retention:        har.Retention{Kind: har.RetainNone},
		Traffic:          &tc,
	}
}
