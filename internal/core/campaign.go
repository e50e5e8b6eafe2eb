package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/har"
	"h3cdn/internal/simnet"
	"h3cdn/internal/sketch"
	"h3cdn/internal/trace"
	"h3cdn/internal/traffic"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

// CampaignConfig describes one measurement campaign (§III-B): every
// target page visited over H2 and H3 from geographically distributed
// probes, with a cache-warming first visit and a measured second visit.
type CampaignConfig struct {
	// Seed drives corpus generation and per-probe randomness.
	Seed uint64
	// Corpus overrides generation (nil: generated from CorpusConfig).
	Corpus *webgen.Corpus
	// Topology, when non-nil, supplies a prebuilt campaign topology. It
	// must have been built from this campaign's corpus. Topologies are
	// read-only after construction, so one may be shared across
	// concurrently running campaigns; nil builds a private one.
	Topology *Topology
	// CorpusConfig tunes generation when Corpus is nil; its Seed is
	// overridden by Seed.
	CorpusConfig webgen.Config
	// Vantages lists probe sites. Default: the three CloudLab sites.
	Vantages []vantage.Point
	// ProbesPerVantage overrides each site's probe count (0 keeps the
	// site default).
	ProbesPerVantage int
	// Modes lists browsing modes. Default {ModeH2, ModeH3}.
	Modes []browser.Mode
	// LossRate injects path loss on top of which §VI-E's Traffic
	// Control sweep adds more. Zero selects the default baseline of
	// 0.3% (real Internet paths are not lossless — the paper's "0%"
	// condition refers to *added* loss); pass a negative value for a
	// genuinely lossless network.
	LossRate float64
	// Impairment, when non-nil, applies the fault-injection layer
	// (bursty loss, jitter, reordering, outages) to every client↔server
	// path in every shard, on top of LossRate. The struct is shared
	// read-only across worker goroutines; each shard's universe derives
	// its own impairment randomness from the shard seed, so datasets
	// stay byte-identical across worker counts.
	Impairment *simnet.Impairment
	// LinkTrace, when non-nil, drives every shard's download access link
	// from a capacity trace (simnet.TraceLink replay) instead of the
	// fixed access rate — the Mahimahi-style variable-link condition.
	// The TraceLink is immutable and shared read-only across worker
	// goroutines; replay position is a pure function of virtual time, so
	// datasets stay byte-identical across worker counts.
	LinkTrace *simnet.TraceLink
	// FetchRetries bounds the browser's transparent re-fetches after a
	// transport error. 0 keeps the browser default (2); negative
	// disables retries.
	FetchRetries int
	// Consecutive keeps session caches across pages within a probe's
	// measured pass (§VI-D); the standard protocol clears them after
	// every visit.
	Consecutive bool
	// Workers bounds the worker pool draining shards. 0 selects
	// GOMAXPROCS; 1 runs every shard inline on the calling goroutine.
	// The shard decomposition is the same at any worker count, and so is
	// the dataset.
	Workers int
	// PagesPerShard is the page-range granularity of one shard (0
	// selects 128). Consecutive mode ignores it: session continuity
	// spans the whole corpus, so each probe is a single shard.
	PagesPerShard int
	// H3WaitOverhead / MissPenalty / MaxEvents pass through to the
	// universes.
	H3WaitOverhead time.Duration
	MissPenalty    time.Duration
	MaxEvents      int
	// QlogDir, when non-empty, enables event tracing and writes one
	// qlog JSONL file per shard (<mode>_<vantage>_p<probe>_s<shard>.qlog)
	// covering every measured visit. The directory must exist. Shard
	// files are byte-identical across worker counts.
	QlogDir string
	// TracePhases enables event tracing and folds each measured visit's
	// trace into a phase breakdown, collected in Dataset.Phases.
	TracePhases bool
	// TraceRing overrides the tracer's event-ring capacity per shard
	// (0 keeps the trace package default). When a visit overflows the
	// ring, its sweep-based attribution is replaced by HAR-derived
	// buckets and marked Truncated — mainly a test knob, but also a
	// memory bound for very large traced campaigns.
	TraceRing int
	// Retention selects what happens to finished PageLogs after they
	// are folded into Dataset.Metrics: keep them all (the zero value —
	// the historical exact-analysis behavior), keep a deterministic
	// per-shard sample, or free them immediately so campaign memory is
	// O(shards × sketch size) instead of O(pages). Retention never
	// affects Metrics, which always covers every page.
	Retention har.Retention
	// Traffic, when non-nil, replaces the closed-loop visit protocol
	// (warm pass + measured pass over every page) with the open-loop
	// population engine: a seeded user population generates Poisson
	// session arrivals contending on shared TTL edge caches. Shards then
	// partition users instead of pages — each shard is an independent
	// PoP serving its population slice — and the dataset's PageLogs are
	// whatever visits the population made (under Retention), not one
	// visit per corpus page. Two things do not apply and are rejected:
	// Consecutive, because sessions already decide how visits share
	// session caches; and TracePhases/QlogDir, because the tracer
	// brackets one visit at a time while population visits overlap.
	Traffic *traffic.Config
}

// DefaultBaselineLoss is the ambient packet-loss rate of the simulated
// paths (see CampaignConfig.LossRate).
const DefaultBaselineLoss = 0.003

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.Vantages == nil {
		c.Vantages = vantage.Points()
	}
	if c.LossRate == 0 {
		c.LossRate = DefaultBaselineLoss
	} else if c.LossRate < 0 {
		c.LossRate = 0
	}
	if c.Modes == nil {
		c.Modes = []browser.Mode{browser.ModeH2, browser.ModeH3}
	}
	return c
}

// Dataset is a campaign's output: per-mode HAR logs over the shared
// corpus.
type Dataset struct {
	Seed        uint64
	Consecutive bool
	Corpus      *webgen.Corpus
	Logs        map[browser.Mode]*har.Log
	// Phases holds per-visit phase attributions (one entry per page in
	// the same order as Logs[mode].Pages) when the campaign ran with
	// TracePhases. Like Stats it never serializes.
	Phases map[browser.Mode][]trace.PhaseBreakdown `json:"-"`
	// Stats carries campaign execution counters. It is not part of the
	// serialized dataset (fixed-seed datasets stay byte-identical across
	// engine changes) and is zero on loaded datasets.
	Stats CampaignStats `json:"-"`
	// Metrics holds the campaign's streamed aggregates: mergeable
	// per-(mode, vantage) sketches covering every measured page,
	// regardless of HAR retention. Shard accumulators are merged in
	// shard-index order, so Metrics is byte-identical across worker
	// counts. Like Stats it never serializes and is nil on loaded
	// datasets.
	Metrics *sketch.MetricAccumulator `json:"-"`
	// Traffic holds the population engine's emergent outputs (arrival
	// counters plus the per-epoch edge-contention series), merged across
	// shards in job order. Nil on closed-loop campaigns and on loaded
	// datasets; like Stats it never serializes.
	Traffic *traffic.Report `json:"-"`
}

// CampaignStats aggregates execution counters across a campaign's
// shards. Like Dataset.Stats it never serializes: recovery behavior is
// observable here without perturbing fixed-seed dataset bytes.
type CampaignStats struct {
	// Events is the total scheduler events executed (warm + measured
	// passes) — the simulator's unit of work.
	Events int64
	// Recovery aggregates client-side loss-recovery activity: RTO/PTO
	// fires, retransmissions, fetch retries, blackout crossings.
	Recovery simnet.RecoveryStats
	// Network-level drop counters, summed over all shard networks.
	LossDrops   int64 // ambient i.i.d. loss
	BurstDrops  int64 // Gilbert–Elliott impairment loss
	OutageDrops int64 // scheduled-outage drops
	QueueDrops  int64 // tail drops at path queue limits
	Reordered   int64 // packets held back by the reordering impairment
	// PagesFolded counts measured pages folded into the streaming
	// metric accumulators; PagesRetained counts the subset whose
	// PageLogs the retention policy kept in the dataset.
	PagesFolded   int64
	PagesRetained int64
	// Traffic carries the population engine's arrival accounting
	// (sessions started; visits generated vs completed vs shed) on
	// open-loop campaigns; zero on closed-loop ones.
	Traffic traffic.Counters
}

// add accumulates one shard's counters.
func (s *CampaignStats) add(o CampaignStats) {
	s.Events += o.Events
	s.Recovery.Add(o.Recovery)
	s.LossDrops += o.LossDrops
	s.BurstDrops += o.BurstDrops
	s.OutageDrops += o.OutageDrops
	s.QueueDrops += o.QueueDrops
	s.Reordered += o.Reordered
	s.PagesFolded += o.PagesFolded
	s.PagesRetained += o.PagesRetained
	s.Traffic.Add(o.Traffic)
}

// defaultPagesPerShard is the page-range granularity of one shard when
// CampaignConfig.PagesPerShard is zero. Corpora at or below this size run
// as a single shard per probe, byte-identical to an unsharded campaign —
// the default is chosen above the test-fixture scale (96 pages) so the
// calibrated statistical shape tests keep their exact seed datasets,
// while paper-scale runs (325 pages) shard.
const defaultPagesPerShard = 128

// shardJob identifies one (mode, vantage, probe, page-range) run. Each
// shard gets its own deterministic universe, so the decomposition — which
// depends only on the corpus and config, never on worker count or
// scheduling — fixes the dataset exactly.
type shardJob struct {
	mode   browser.Mode
	point  vantage.Point
	probe  int
	shard  int // index of this page range within the probe
	lo, hi int // page range [lo, hi) in corpus order
}

// fileName names a per-shard file: prefix, then the shard's mode,
// vantage, probe and index, then the extension.
func (job shardJob) fileName(prefix, ext string) string {
	return fmt.Sprintf("%s%s_%s_p%d_s%d.%s", prefix, modeSlug(job.mode), slug(job.point.Name), job.probe, job.shard, ext)
}

// shardSeed derives the universe seed for a shard. Shard 0 reproduces the
// historical per-probe formula, so single-shard campaigns (small corpora,
// Consecutive mode) match pre-sharding datasets exactly.
func shardSeed(cfg CampaignConfig, job shardJob) uint64 {
	return cfg.Seed + uint64(job.probe)*1009 + uint64(job.shard)*7919
}

// shardCampaign decomposes the campaign into shard jobs, in (mode,
// vantage, probe, page-range) order — the stitch order of the dataset.
// Traffic campaigns partition the user population instead of the page
// range: each job's [lo, hi) is a user slice, every shard sees the full
// corpus, and the decomposition stays a pure function of the config —
// which is what keeps open-loop datasets byte-identical across worker
// counts, exactly as it does for pages.
func shardCampaign(cfg CampaignConfig, corpus *webgen.Corpus) []shardJob {
	units := len(corpus.Pages)
	per := cfg.PagesPerShard
	if per <= 0 {
		per = defaultPagesPerShard
	}
	if cfg.Consecutive || per > units {
		per = units
	}
	if cfg.Traffic != nil {
		tc := cfg.Traffic.WithDefaults()
		units = tc.Users
		per = tc.UsersPerShard
		if per > units {
			per = units
		}
	}
	probesTotal := 0
	for _, point := range cfg.Vantages {
		if cfg.ProbesPerVantage > 0 {
			probesTotal += cfg.ProbesPerVantage
		} else {
			probesTotal += point.ProbesPerSite
		}
	}
	shardsPerProbe := (units + per - 1) / per
	jobs := make([]shardJob, 0, len(cfg.Modes)*probesTotal*shardsPerProbe)
	for _, mode := range cfg.Modes {
		for _, point := range cfg.Vantages {
			probes := point.ProbesPerSite
			if cfg.ProbesPerVantage > 0 {
				probes = cfg.ProbesPerVantage
			}
			for p := 0; p < probes; p++ {
				for s, lo := 0, 0; lo < units; s, lo = s+1, lo+per {
					hi := lo + per
					if hi > units {
						hi = units
					}
					jobs = append(jobs, shardJob{
						mode: mode, point: point, probe: p,
						shard: s, lo: lo, hi: hi,
					})
				}
			}
		}
	}
	return jobs
}

// RunCampaign executes the full visit protocol and returns the dataset.
// Shards run on a bounded worker pool (see CampaignConfig.Workers); the
// result is independent of worker count.
func RunCampaign(cfg CampaignConfig) (*Dataset, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Retention.Validate(); err != nil {
		return nil, fmt.Errorf("core: RunCampaign: %w", err)
	}
	if cfg.Traffic != nil {
		if err := cfg.Traffic.Validate(); err != nil {
			return nil, fmt.Errorf("core: RunCampaign: %w", err)
		}
		switch {
		case cfg.Consecutive:
			return nil, fmt.Errorf("core: RunCampaign: traffic campaigns are open-loop; Consecutive does not apply")
		case cfg.TracePhases:
			return nil, fmt.Errorf("core: RunCampaign: traffic campaigns do not support TracePhases")
		case cfg.QlogDir != "":
			return nil, fmt.Errorf("core: RunCampaign: traffic campaigns do not support QlogDir")
		}
	}
	corpus := cfg.Corpus
	if corpus == nil {
		cc := cfg.CorpusConfig
		cc.Seed = cfg.Seed
		corpus = webgen.Generate(cc)
	}
	if len(corpus.Pages) == 0 {
		return nil, fmt.Errorf("core: RunCampaign: empty corpus")
	}

	// The topology — content catalog, provider tables, resolver maps —
	// depends only on the corpus and registry, so build it once and
	// share it read-only across every shard on every worker.
	topo := cfg.Topology
	if topo == nil {
		topo = NewTopology(corpus)
	}
	jobs := shardCampaign(cfg, corpus)
	offsets, perMode := stitchOffsets(jobs)
	ds := newStitchDataset(cfg, corpus, perMode)
	results := make([]shardResult, len(jobs))
	// Population shards retain a variable number of visit logs (the
	// population decides), and under sampled or disabled retention a
	// shard contributes an unknown (possibly zero) number of retained
	// PageLogs, so only closed-loop RetainAll campaigns know every
	// shard's page count up front.
	retainAll := cfg.Retention.Kind == har.RetainAll && cfg.Traffic == nil

	// consume files one finished shard. When its page count is known up
	// front, its slices are copied straight to their final dataset
	// position and dropped, so the campaign retains the dataset plus at
	// most the in-flight results — O(workers × shard size) transient
	// memory. Otherwise they wait for stitchRetained, which appends them
	// in job order once every shard has finished.
	consume := func(r shardResult) {
		if r.err == nil && retainAll {
			job := jobs[r.job]
			copy(ds.Logs[job.mode].Pages[offsets[r.job]:], r.pages)
			if cfg.TracePhases {
				copy(ds.Phases[job.mode][offsets[r.job]:], r.phases)
			}
			r.pages, r.phases = nil, nil
		}
		results[r.job] = r
	}
	run := func(i int) shardResult {
		r := runShard(cfg, topo, jobs[i])
		r.job = i
		return r
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers == 1 {
		for i := range jobs {
			consume(run(i))
		}
	} else {
		// Results stream through a channel bounded at the worker count:
		// a finished shard parks at most one result per worker before the
		// stitcher (this goroutine) copies it into place and frees it.
		jobCh := make(chan int)
		resCh := make(chan shardResult, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobCh {
					resCh <- run(i)
				}
			}()
		}
		go func() {
			for i := range jobs {
				jobCh <- i
			}
			close(jobCh)
		}()
		go func() {
			wg.Wait()
			close(resCh)
		}()
		for r := range resCh {
			consume(r)
		}
	}
	// Report the first failure in job order (not completion order), so a
	// multi-failure campaign surfaces the same error at every worker count.
	unit := "pages"
	if cfg.Traffic != nil {
		unit = "users"
	}
	for i, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("core: probe %s/%d mode %s %s [%d,%d): %w",
				jobs[i].point.Name, jobs[i].probe, jobs[i].mode, unit, jobs[i].lo, jobs[i].hi, r.err)
		}
	}
	stitchRetained(ds, jobs, results)
	// Merge shard accumulators in job-index order. Sketch merging is
	// associative and commutative, so any order would yield identical
	// state; the fixed order makes that property incidental rather than
	// load-bearing.
	ds.Metrics = sketch.NewAccumulator(sketch.DefaultAlpha)
	if cfg.Traffic != nil {
		ds.Traffic = &traffic.Report{}
	}
	for _, r := range results {
		ds.Stats.add(r.stats)
		ds.Metrics.Merge(r.acc)
		if ds.Traffic != nil {
			ds.Traffic.Merge(r.traffic)
		}
	}
	return ds, nil
}

// stitchRetained appends each shard's retained PageLogs (and phase
// breakdowns) to the dataset in job order. Shards whose retention kept
// nothing contribute nil slices — RetainNone shards always, RetainSample
// shards possibly, fixed-offset shards already copied into place — and
// are skipped rather than assumed to hold pages.
func stitchRetained(ds *Dataset, jobs []shardJob, results []shardResult) {
	for i, job := range jobs {
		if len(results[i].pages) > 0 {
			ds.Logs[job.mode].Pages = append(ds.Logs[job.mode].Pages, results[i].pages...)
		}
		if len(results[i].phases) > 0 {
			ds.Phases[job.mode] = append(ds.Phases[job.mode], results[i].phases...)
		}
	}
}

// shardResult carries one finished shard's output to the stitcher.
type shardResult struct {
	job     int
	pages   []har.PageLog
	phases  []trace.PhaseBreakdown
	stats   CampaignStats
	acc     *sketch.MetricAccumulator
	traffic *traffic.Report // merged into Dataset.Traffic on population campaigns
	err     error
}

// stitchOffsets computes each job's destination index within its mode's
// stitched Pages slice, plus per-mode totals. Offsets depend only on the
// deterministic shard decomposition — a successful shard yields exactly
// hi−lo page logs (and, under TracePhases, hi−lo phase breakdowns) — so
// results can be copied to their final position the moment a shard
// completes, in any completion order, and the stitched dataset stays
// byte-identical across worker counts.
func stitchOffsets(jobs []shardJob) ([]int, map[browser.Mode]int) {
	offsets := make([]int, len(jobs))
	perMode := make(map[browser.Mode]int, 4)
	for i, job := range jobs {
		offsets[i] = perMode[job.mode]
		perMode[job.mode] += job.hi - job.lo
	}
	return offsets, perMode
}

// newStitchDataset preallocates the dataset shard results stream into:
// full-length per-mode page (and phase) slices, filled in place by offset
// as shards complete — allocated once regardless of shard count.
// Under sampled or disabled retention the retained page count is unknown
// up front (and the full-length preallocation would itself be the
// O(pages) memory the policy exists to avoid), so slices start nil and
// stitchRetained appends to them.
func newStitchDataset(cfg CampaignConfig, corpus *webgen.Corpus, perMode map[browser.Mode]int) *Dataset {
	// The Dataset shares one allocation with the har.Log values of the
	// default two modes, and every mode's pages share one backing array
	// (three-index sub-slices, so no mode can append into the next).
	blk := &struct {
		ds   Dataset
		logs [2]har.Log
	}{}
	ds := &blk.ds
	*ds = Dataset{
		Seed:        cfg.Seed,
		Consecutive: cfg.Consecutive,
		Corpus:      corpus,
		Logs:        make(map[browser.Mode]*har.Log, len(cfg.Modes)),
	}
	if cfg.TracePhases {
		ds.Phases = make(map[browser.Mode][]trace.PhaseBreakdown, len(cfg.Modes))
	}
	logs := blk.logs[:]
	if len(cfg.Modes) > len(logs) {
		logs = make([]har.Log, len(cfg.Modes))
	}
	prealloc := cfg.Retention.Kind == har.RetainAll && cfg.Traffic == nil
	var pages []har.PageLog
	if prealloc {
		total := 0
		for _, mode := range cfg.Modes {
			total += perMode[mode]
		}
		pages = make([]har.PageLog, total)
	}
	for i, mode := range cfg.Modes {
		logs[i].Seed = cfg.Seed
		ds.Logs[mode] = &logs[i]
		if prealloc {
			n := perMode[mode]
			logs[i].Pages = pages[:n:n]
			pages = pages[n:]
		}
		if cfg.TracePhases {
			ds.Phases[mode] = nil
			if prealloc {
				ds.Phases[mode] = make([]trace.PhaseBreakdown, perMode[mode])
			}
		}
	}
	return ds
}

// modeSlug flattens a browsing-mode name into a filename-safe token
// ("http/1.1" → "http11").
func modeSlug(m browser.Mode) string {
	return strings.NewReplacer("/", "", ".", "").Replace(m.String())
}
