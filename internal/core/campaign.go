package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/har"
	"h3cdn/internal/seqrand"
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
	// Sequential disables shard-level parallelism (for debugging). The
	// shard decomposition is identical either way, so sequential and
	// parallel runs of the same config produce identical datasets.
	Sequential bool
	// Workers bounds the worker pool draining shards. 0 selects
	// GOMAXPROCS.
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
	// files are byte-identical across worker counts and Sequential.
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
	// visit per corpus page. Incompatible with Consecutive, TracePhases,
	// QlogDir, and sampled retention (the reservoir state is not part of
	// traffic checkpoints).
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
// result is independent of worker count and of Sequential.
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
		case cfg.Retention.Kind == har.RetainSample:
			return nil, fmt.Errorf("core: RunCampaign: traffic campaigns do not support sampled retention (reservoir state is not checkpointable)")
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
	errs := make([]error, len(jobs))
	accs := make([]*sketch.MetricAccumulator, len(jobs))
	var treps []*traffic.Report
	if cfg.Traffic != nil {
		treps = make([]*traffic.Report, len(jobs))
	}
	// Traffic shards retain a variable number of visit logs (the
	// population decides), so even RetainAll campaigns stitch by append
	// rather than fixed offsets.
	retainAll := cfg.Retention.Kind == har.RetainAll && cfg.Traffic == nil
	// Under sampled or disabled retention a shard contributes an unknown
	// (possibly zero) number of retained PageLogs, so the fixed-offset
	// copy cannot apply; buffer per-shard retained slices and stitch
	// them in job order once every shard has finished.
	var retPages [][]har.PageLog
	var retPhases [][]trace.PhaseBreakdown
	if !retainAll {
		retPages = make([][]har.PageLog, len(jobs))
		if cfg.TracePhases {
			retPhases = make([][]trace.PhaseBreakdown, len(jobs))
		}
	}

	// consume stitches one finished shard into its final dataset position
	// and drops the shard's slices, so the campaign retains the dataset
	// plus at most the in-flight results — O(workers × shard size)
	// transient memory — instead of holding every shard's page-log slice
	// until a stitch pass at the end.
	consume := func(r shardResult) {
		errs[r.job] = r.err
		if r.err != nil {
			return
		}
		accs[r.job] = r.acc
		if treps != nil {
			treps[r.job] = r.traffic
		}
		job := jobs[r.job]
		if retainAll {
			copy(ds.Logs[job.mode].Pages[offsets[r.job]:], r.pages)
			if cfg.TracePhases {
				copy(ds.Phases[job.mode][offsets[r.job]:], r.phases)
			}
		} else {
			retPages[r.job] = r.pages
			if cfg.TracePhases {
				retPhases[r.job] = r.phases
			}
		}
		ds.Stats.add(r.stats)
	}
	run := func(i int) shardResult {
		if cfg.Traffic != nil {
			pages, stats, acc, rep, err := runTrafficShard(cfg, topo, jobs[i])
			return shardResult{job: i, pages: pages, stats: stats, acc: acc, traffic: rep, err: err}
		}
		pages, phases, stats, acc, err := runShard(cfg, topo, jobs[i])
		return shardResult{job: i, pages: pages, phases: phases, stats: stats, acc: acc, err: err}
	}
	if cfg.Sequential {
		for i := range jobs {
			consume(run(i))
		}
	} else {
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(jobs) {
			workers = len(jobs)
		}
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
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: probe %s/%d mode %s pages [%d,%d): %w",
				jobs[i].point.Name, jobs[i].probe, jobs[i].mode, jobs[i].lo, jobs[i].hi, err)
		}
	}
	if !retainAll {
		stitchRetained(ds, jobs, retPages, retPhases)
	}
	// Merge shard accumulators in job-index order. Sketch merging is
	// associative and commutative, so any order would yield identical
	// state; the fixed order makes that property incidental rather than
	// load-bearing.
	ds.Metrics = sketch.NewAccumulator(sketch.DefaultAlpha)
	for _, acc := range accs {
		ds.Metrics.Merge(acc)
	}
	if treps != nil {
		ds.Traffic = &traffic.Report{}
		for _, rep := range treps {
			ds.Traffic.Merge(rep)
		}
	}
	return ds, nil
}

// stitchRetained appends each shard's retained PageLogs (and phase
// breakdowns) to the dataset in job order. Shards whose retention kept
// nothing contribute nil slices — RetainNone shards always, RetainSample
// shards possibly — and are skipped rather than assumed to hold pages.
func stitchRetained(ds *Dataset, jobs []shardJob, pages [][]har.PageLog, phases [][]trace.PhaseBreakdown) {
	for i, job := range jobs {
		if len(pages[i]) > 0 {
			ds.Logs[job.mode].Pages = append(ds.Logs[job.mode].Pages, pages[i]...)
		}
		if phases != nil && len(phases[i]) > 0 {
			ds.Phases[job.mode] = append(ds.Phases[job.mode], phases[i]...)
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
	traffic *traffic.Report // population shards only
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

// runShard executes the visit protocol for one shard: a warm pass caches
// the shard's resources at the edges (and, implicitly, teaches the
// browser each host's H3 support, like Alt-Svc), then the measured pass
// records HAR logs. The shard sees a sub-corpus view — only its page
// range, with the full corpus's hostname maps — while the shared
// campaign topology supplies the content catalog and resolver tables, so
// each shard instantiates only the servers its pages contact.
// It also returns the shard's execution counters (events, recovery
// activity, network drops) and its streaming metric accumulator, into
// which every measured visit is folded the moment it finishes —
// regardless of whether the retention policy keeps its PageLog.
func runShard(cfg CampaignConfig, topo *Topology, job shardJob) ([]har.PageLog, []trace.PhaseBreakdown, CampaignStats, *sketch.MetricAccumulator, error) {
	corpus := topo.Corpus()
	view := corpus
	if job.lo != 0 || job.hi != len(corpus.Pages) {
		view = &webgen.Corpus{
			Pages:        corpus.Pages[job.lo:job.hi],
			H3Support:    corpus.H3Support,
			HostProvider: corpus.HostProvider,
			H1Only:       corpus.H1Only,
		}
	}

	// Tracing: each shard owns a private tracer and qlog buffer (shards
	// run on worker goroutines; nothing here is shared), so shard files
	// and phase lists are independent of worker count.
	var (
		tracer  *trace.Tracer
		qw      *trace.QlogWriter
		qbuf    bytes.Buffer
		qpath   string
		sPhases []trace.PhaseBreakdown
	)
	if cfg.QlogDir != "" || cfg.TracePhases {
		if cfg.QlogDir != "" {
			name := fmt.Sprintf("%s_%s_p%d_s%d.qlog",
				modeSlug(job.mode), slug(job.point.Name), job.probe, job.shard)
			qpath = filepath.Join(cfg.QlogDir, name)
			qw = trace.NewQlogWriter(&qbuf, name)
		}
		tracer = trace.New(cfg.TraceRing, func(v *trace.VisitRecord) {
			if qw != nil {
				qw.WriteVisit(v)
			}
			if cfg.TracePhases {
				sPhases = append(sPhases, trace.AttributeVisit(v))
			}
		})
	}

	u, err := NewUniverse(UniverseConfig{
		Seed:           shardSeed(cfg, job),
		Corpus:         view,
		Topology:       topo,
		Vantage:        job.point,
		LossRate:       cfg.LossRate,
		Impair:         cfg.Impairment,
		LinkTrace:      cfg.LinkTrace,
		H3WaitOverhead: cfg.H3WaitOverhead,
		MissPenalty:    cfg.MissPenalty,
		MaxEvents:      cfg.MaxEvents,
		Trace:          tracer,
	})
	if err != nil {
		return nil, nil, CampaignStats{}, nil, err
	}
	defer u.Close()
	shardStats := func() CampaignStats {
		ns := u.Net.Stats()
		return CampaignStats{
			Events:      u.Events(),
			Recovery:    u.RecoveryStats(),
			LossDrops:   ns.LossDrops,
			BurstDrops:  ns.BurstDrops,
			OutageDrops: ns.OutageDrops,
			QueueDrops:  ns.QueueDrops,
			Reordered:   ns.Reordered,
		}
	}

	// Chrome-realistic resumption: QUIC 0-RTT on, TLS 1.3 early data
	// off — a resumed H2 connection still pays the TCP and TLS round
	// trips (the asymmetry behind §VI-D's consecutive-visit gains).
	b := u.NewBrowser(browser.Config{
		Mode:            job.mode,
		EnableEarlyData: false,
		EnableZeroRTT:   true,
		HandshakeCPU:    300 * time.Microsecond,
		MaxFetchRetries: cfg.FetchRetries,
	})
	probeName := job.point.Name + "/" + strconv.Itoa(job.probe)

	// Warm pass (discarded): fills edge caches, as in §III-B.
	for i := range view.Pages {
		if err := u.RunVisitDiscard(b, &view.Pages[i]); err != nil {
			return nil, nil, shardStats(), nil, fmt.Errorf("warm visit: %w", err)
		}
		b.ClearSessions()
	}

	// Streaming aggregation state: every measured visit folds into the
	// shard accumulator; the retention policy then decides whether its
	// PageLog survives. The sample reservoir draws from a private
	// seqrand stream off the shard seed, so which pages are retained is
	// a pure function of the shard — independent of worker count,
	// completion order, and every other consumer of shard randomness.
	acc := sketch.NewAccumulator(sketch.DefaultAlpha)
	group := acc.Group(sketch.Key{Mode: job.mode.String(), Vantage: job.point.Name})
	var reservoir *sketch.Reservoir[retainedVisit]
	if cfg.Retention.Kind == har.RetainSample {
		seed := seqrand.New(shardSeed(cfg, job)).StreamSeed("retain")
		reservoir = sketch.NewReservoir[retainedVisit](cfg.Retention.Sample, seed)
	}

	// Measured pass.
	var logs []har.PageLog
	if cfg.Retention.Kind == har.RetainAll {
		logs = make([]har.PageLog, 0, len(view.Pages))
	}
	for i := range view.Pages {
		log, err := u.RunVisit(b, &view.Pages[i])
		if err != nil {
			return nil, nil, shardStats(), nil, fmt.Errorf("measured visit: %w", err)
		}
		log.Probe = probeName
		// Ring overflow degrades AttributeVisit to a suffix sweep whose
		// spans may be missing their openings. Fall back to the visit's
		// HAR timings — coarser buckets, but complete — and keep the
		// Truncated mark so consumers can tell the two apart.
		var pb *trace.PhaseBreakdown
		if cfg.TracePhases && len(sPhases) > 0 {
			pb = &sPhases[len(sPhases)-1]
			if pb.Truncated {
				*pb = harPhases(log)
			}
		}
		group.Fold(visitSample(log, pb))
		switch cfg.Retention.Kind {
		case har.RetainAll:
			logs = append(logs, *log)
		case har.RetainSample:
			rv := retainedVisit{page: *log}
			if pb != nil {
				rv.phase = *pb
			}
			reservoir.Offer(rv)
		case har.RetainNone:
			// PageLog is dropped here; the fold above already captured it.
		}
		if !cfg.Consecutive {
			b.ClearSessions()
		}
	}
	folded := int64(len(view.Pages))
	switch cfg.Retention.Kind {
	case har.RetainSample:
		items := reservoir.Items()
		logs = make([]har.PageLog, len(items))
		if cfg.TracePhases {
			sPhases = make([]trace.PhaseBreakdown, len(items))
		}
		for i, it := range items {
			logs[i] = it.page
			if cfg.TracePhases {
				sPhases[i] = it.phase
			}
		}
	case har.RetainNone:
		sPhases = nil
	}

	if qw != nil {
		if err := qw.Err(); err != nil {
			return nil, nil, shardStats(), nil, fmt.Errorf("qlog: %w", err)
		}
		if err := os.WriteFile(qpath, qbuf.Bytes(), 0o644); err != nil {
			return nil, nil, shardStats(), nil, fmt.Errorf("qlog: %w", err)
		}
	}
	stats := shardStats()
	stats.PagesFolded = folded
	stats.PagesRetained = int64(len(logs))
	return logs, sPhases, stats, acc, nil
}

// retainedVisit pairs a retained PageLog with its phase breakdown so a
// sampled shard keeps Pages and Phases aligned.
type retainedVisit struct {
	page  har.PageLog
	phase trace.PhaseBreakdown
}

// modeSlug flattens a browsing-mode name into a filename-safe token
// ("http/1.1" → "http11").
func modeSlug(m browser.Mode) string {
	return strings.NewReplacer("/", "", ".", "").Replace(m.String())
}
