package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/cdn"
	"h3cdn/internal/har"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/sketch"
	"h3cdn/internal/trace"
	"h3cdn/internal/traffic"
	"h3cdn/internal/webgen"
)

// This file is the one shard runner every workload shares. A shard runs
// in epochs, each simulated in a fresh universe whose randomness derives
// from the shard seed (for population epochs, from the shard seed and the
// epoch index), so nothing implicit survives an epoch boundary: the only carried state is the
// shard's explicit fields {edge cache dumps, per-user Alt-Svc memory,
// counters, metrics, retained visits}. That is exactly what a checkpoint
// records — which makes a killed-and-resumed run byte-identical to an
// uninterrupted one by construction, because the uninterrupted run
// crosses epochs through the very same dump/restore path.
//
// Only the driver differs between workloads. The closed-loop §III-B
// protocol (runPasses) is a single-epoch schedule: a scripted warm pass,
// then the measured pass over the shard's pages. The population driver
// (runArrivals, traffic.go) plays one epoch of Poisson session arrivals
// on shared TTL caches. Either way every finished visit goes to the
// shard's visitSink.

// shard is one runShard call: its inputs plus the state that crosses
// epoch boundaries.
type shard struct {
	cfg    CampaignConfig
	topo   *Topology
	job    shardJob
	tc     *traffic.Config // population shards only (defaulted)
	seed   uint64
	corpus *webgen.Corpus // the pages the driver draws from

	// Carried across epochs and recorded by checkpoints.
	epoch   int // next epoch to run
	edges   map[string][]cdn.CacheEntry
	userMem map[int][]string // shard-local user → learned Alt-Svc hosts
	stats   CampaignStats
	acc     *sketch.MetricAccumulator
	rep     *traffic.Report
	sink    visitSink

	ckpt   string // checkpoint file; empty disables checkpoints
	digest string // checkpointDigest of the shard's inputs

	// Tracing (closed loop only): each shard owns a private tracer and
	// qlog buffer, so shard files and phase lists are independent of
	// worker count. phase is the last measured visit's breakdown.
	tracer *trace.Tracer
	phase  trace.PhaseBreakdown
	qw     *trace.QlogWriter
	qbuf   bytes.Buffer
}

// runShard executes one shard of either workload and returns its
// retained visits, execution counters, metric accumulator and (for
// population shards) traffic report. A closed-loop shard sees a
// sub-corpus view — only its page range, with the full corpus's hostname
// maps — while the shared campaign topology supplies the content catalog
// and resolver tables, so each shard instantiates only the servers its
// pages contact. A population shard is the user slice [job.lo, job.hi)
// browsing the full corpus against its own edges (an independent PoP).
func runShard(cfg CampaignConfig, topo *Topology, job shardJob) shardResult {
	sh, err := newShard(cfg, topo, job)
	if err == nil {
		err = sh.run()
	}
	if err == nil {
		err = sh.writeQlog()
	}
	if err != nil {
		return shardResult{err: err}
	}
	pages, phases := sh.sink.retained(cfg.TracePhases)
	sh.stats.PagesFolded = int64(sh.acc.Pages())
	sh.stats.PagesRetained = int64(len(pages))
	sh.stats.Traffic = sh.rep.Counters
	return shardResult{pages: pages, phases: phases, stats: sh.stats, acc: sh.acc, traffic: sh.rep}
}

// newShard sets a shard up for its first epoch — or, when a population
// checkpoint exists, for the next epoch the checkpoint recorded.
func newShard(cfg CampaignConfig, topo *Topology, job shardJob) (*shard, error) {
	sh := &shard{
		cfg: cfg, topo: topo, job: job,
		seed:    shardSeed(cfg, job),
		corpus:  topo.Corpus(),
		userMem: make(map[int][]string),
		acc:     sketch.NewAccumulator(sketch.DefaultAlpha),
		rep:     &traffic.Report{},
	}
	sh.sink = visitSink{
		probe: job.point.Name + "/" + strconv.Itoa(job.probe),
		fold:  visitSample,
		all:   cfg.Retention.Kind == har.RetainAll,
	}
	if cfg.Traffic != nil {
		tc := cfg.Traffic.WithDefaults()
		sh.tc = &tc
		sh.sink.fold = trafficVisitSample
	} else {
		if job.lo != 0 || job.hi != len(sh.corpus.Pages) {
			c := sh.corpus
			sh.corpus = &webgen.Corpus{
				Pages:        c.Pages[job.lo:job.hi],
				H3Support:    c.H3Support,
				HostProvider: c.HostProvider,
				H1Only:       c.H1Only,
			}
		}
		if sh.sink.all {
			sh.sink.pages = make([]har.PageLog, 0, len(sh.corpus.Pages))
		}
	}
	// The sample reservoir draws from a private seqrand stream off the
	// shard seed, so which visits are retained is a pure function of the
	// shard — independent of worker count, completion order, and every
	// other consumer of shard randomness.
	if cfg.Retention.Kind == har.RetainSample {
		seed := seqrand.New(sh.seed).StreamSeed("retain")
		sh.sink.sample = sketch.NewReservoir[retainedVisit](cfg.Retention.Sample, seed)
	}
	if cfg.QlogDir != "" || cfg.TracePhases {
		if cfg.QlogDir != "" {
			sh.qw = trace.NewQlogWriter(&sh.qbuf, job.fileName("", "qlog"))
		}
		sh.tracer = trace.New(cfg.TraceRing, func(v *trace.VisitRecord) {
			if sh.qw != nil {
				sh.qw.WriteVisit(v)
			}
			if cfg.TracePhases {
				sh.phase = trace.AttributeVisit(v)
			}
		})
	}
	if sh.tc != nil && sh.tc.CheckpointDir != "" {
		sh.ckpt = filepath.Join(sh.tc.CheckpointDir, job.fileName("traffic_", "ckpt.json"))
		sh.digest = checkpointDigest(cfg, *sh.tc, len(sh.corpus.Pages))
		if err := sh.resume(); err != nil {
			return nil, err
		}
	}
	sh.sink.group = sh.acc.Group(sketch.Key{Mode: job.mode.String(), Vantage: job.point.Name})
	return sh, nil
}

// run is the epoch loop.
func (sh *shard) run() error {
	epochs := 1
	if sh.tc != nil {
		epochs = sh.tc.Epochs()
	}
	for ran := 1; sh.epoch < epochs; ran++ {
		if err := sh.runEpoch(epochs); err != nil {
			return err
		}
		if sh.ckpt != "" {
			if err := sh.save(); err != nil {
				return err
			}
		}
		if sh.tc != nil && ran == sh.tc.HaltAfterEpochs {
			// Deliberate mid-campaign halt (resume-testing kill switch):
			// the checkpoint just written is the hand-off point.
			break
		}
	}
	return nil
}

// runEpoch simulates epoch sh.epoch in a fresh universe.
func (sh *shard) runEpoch(epochs int) error {
	u, err := NewUniverse(sh.universeConfig())
	if err != nil {
		return err
	}
	defer u.Close()
	// Restore carried cache contents before any visit runs, in sorted
	// provider order so map iteration cannot leak into the replay.
	for _, p := range sortedKeys(sh.edges) {
		edge, err := u.WarmEdge(p)
		if err != nil {
			return err
		}
		edge.RestoreCache(sh.edges[p])
	}
	if sh.tc != nil {
		err = sh.runArrivals(u)
	} else {
		err = sh.runPasses(u)
	}
	if err != nil {
		return err
	}
	sh.stats.add(u.stats())
	sh.epoch++
	if sh.epoch < epochs || sh.ckpt != "" {
		// Dump caches for the next epoch (and the checkpoint). Expired
		// entries are carried as-is: the next epoch's edge discovers the
		// lapse on touch, exactly as a live cache would.
		sh.edges = make(map[string][]cdn.CacheEntry, len(u.edges))
		for nm, edge := range u.edges {
			if entries := edge.DumpCache(); len(entries) > 0 {
				sh.edges[nm] = entries
			}
		}
	}
	return nil
}

// universeConfig is the one place a shard's universe is configured: the
// campaign's network and server knobs plus what the workload sets — the
// shard seed and page view for the closed loop; for a population epoch,
// a seed that is a pure function of (shard, epoch), so replaying epoch e
// after a resume replays its randomness exactly, the cache TTL and the
// epoch's campaign-absolute start.
func (sh *shard) universeConfig() UniverseConfig {
	uc := UniverseConfig{
		Seed:           sh.seed,
		Corpus:         sh.corpus,
		Topology:       sh.topo,
		Vantage:        sh.job.point,
		LossRate:       sh.cfg.LossRate,
		Impair:         sh.cfg.Impairment,
		LinkTrace:      sh.cfg.LinkTrace,
		H3WaitOverhead: sh.cfg.H3WaitOverhead,
		MissPenalty:    sh.cfg.MissPenalty,
		MaxEvents:      sh.cfg.MaxEvents,
		Trace:          sh.tracer,
	}
	if sh.tc != nil {
		uc.Seed = seqrand.New(sh.seed).StreamSeed("epoch", strconv.Itoa(sh.epoch))
		uc.EdgeTTL = sh.tc.CacheTTL
		uc.ClockOffset = time.Duration(sh.epoch) * sh.tc.EpochInterval
	}
	return uc
}

// browserConfig is every campaign browser: Chrome-realistic resumption —
// QUIC 0-RTT on, TLS 1.3 early data off, so a resumed H2 connection
// still pays the TCP and TLS round trips (the asymmetry behind §VI-D's
// consecutive-visit gains).
func browserConfig(cfg CampaignConfig, mode browser.Mode) browser.Config {
	return browser.Config{
		Mode:            mode,
		EnableZeroRTT:   true,
		HandshakeCPU:    300 * time.Microsecond,
		MaxFetchRetries: cfg.FetchRetries,
	}
}

// runPasses is the closed-loop driver (§III-B): a discarded warm pass
// caches the shard's resources at the edges (and, implicitly, teaches
// the browser each host's H3 support, like Alt-Svc), then the measured
// pass sends every visit to the sink.
func (sh *shard) runPasses(u *Universe) error {
	b := u.NewBrowser(browserConfig(sh.cfg, sh.job.mode))
	pages := sh.corpus.Pages
	for i := range pages {
		if err := u.RunVisitDiscard(b, &pages[i]); err != nil {
			return fmt.Errorf("warm visit: %w", err)
		}
		b.ClearSessions()
	}
	for i := range pages {
		log, err := u.RunVisit(b, &pages[i])
		if err != nil {
			return fmt.Errorf("measured visit: %w", err)
		}
		// Ring overflow degrades AttributeVisit to a suffix sweep whose
		// spans may be missing their openings. Fall back to the visit's
		// HAR timings — coarser buckets, but complete — and keep the
		// Truncated mark so consumers can tell the two apart.
		var pb *trace.PhaseBreakdown
		if sh.cfg.TracePhases {
			pb = &sh.phase
			if pb.Truncated {
				*pb = harPhases(log)
			}
		}
		sh.sink.put(log, pb)
		if !sh.cfg.Consecutive {
			b.ClearSessions()
		}
	}
	return nil
}

// writeQlog writes the shard's qlog file, if it traces to one.
func (sh *shard) writeQlog() error {
	if sh.qw == nil {
		return nil
	}
	if err := sh.qw.Err(); err != nil {
		return fmt.Errorf("qlog: %w", err)
	}
	path := filepath.Join(sh.cfg.QlogDir, sh.job.fileName("", "qlog"))
	if err := os.WriteFile(path, sh.qbuf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("qlog: %w", err)
	}
	return nil
}

// visitSink is where every finished visit of a shard goes, whichever
// driver produced it: it stamps the probe, folds the visit into the
// shard's accumulator — so metrics cover every visit — and then applies
// the retention policy to its PageLog.
type visitSink struct {
	probe  string
	group  *sketch.GroupMetrics
	fold   func(*har.PageLog, *trace.PhaseBreakdown) sketch.VisitSample
	all    bool // RetainAll: keep every visit
	pages  []har.PageLog
	phases []trace.PhaseBreakdown
	sample *sketch.Reservoir[retainedVisit] // RetainSample only
}

// retainedVisit pairs a retained PageLog with its phase breakdown so a
// sampled shard keeps Pages and Phases aligned.
type retainedVisit struct {
	Page  har.PageLog          `json:"page"`
	Phase trace.PhaseBreakdown `json:"phase"`
}

// put takes one finished visit; pb is nil on untraced campaigns.
func (s *visitSink) put(log *har.PageLog, pb *trace.PhaseBreakdown) {
	log.Probe = s.probe
	s.group.Fold(s.fold(log, pb))
	switch {
	case s.all:
		s.pages = append(s.pages, *log)
		if pb != nil {
			s.phases = append(s.phases, *pb)
		}
	case s.sample != nil:
		rv := retainedVisit{Page: *log}
		if pb != nil {
			rv.Phase = *pb
		}
		s.sample.Offer(rv)
	}
}

// retained returns the kept visits in visit order, with their phase
// breakdowns when the campaign traces phases.
func (s *visitSink) retained(traced bool) ([]har.PageLog, []trace.PhaseBreakdown) {
	if s.sample == nil {
		return s.pages, s.phases
	}
	items := s.sample.Items()
	pages := make([]har.PageLog, len(items))
	var phases []trace.PhaseBreakdown
	if traced {
		phases = make([]trace.PhaseBreakdown, len(items))
	}
	for i := range items {
		pages[i] = items[i].Page
		if traced {
			phases[i] = items[i].Phase
		}
	}
	return pages, phases
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
