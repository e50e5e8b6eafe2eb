package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/core"
	"h3cdn/internal/simnet"
	"h3cdn/internal/sketch"
	"h3cdn/internal/trace"
	"h3cdn/internal/webgen"
)

// tracedRun is the separate traced run: it reports the per-layer
// metrics. It times the same campaign repetitions as the untraced run,
// alternating plain ones with ones under the CPU profiler (the ledger),
// records spans around every layer call the benchmark makes, and adds
// the simulated-time phase split, a direct visit loop and the
// isolated layer benches.
func tracedRun(w workload, o options) (result, error) {
	res := newResult()
	spans := newSpanLog()
	b, err := newBench(w, o, spans)
	if err != nil {
		return res, err
	}
	b.setup()
	res.set("webgen.generate_ms", "ms", 1e3*median(spans.durations("webgen.Generate")))
	res.set("core.topology_ms", "ms", 1e3*median(spans.durations("core.NewTopology")))

	warm, err := b.runRep(&res, nil, true)
	if err != nil {
		return res, err
	}
	var plain, profiled []rep
	var samples []profileSample
	start := time.Now()
	dur := time.Duration(o.seconds) * time.Second
	for len(plain) < 2 || len(profiled) < 2 || time.Since(start) < dur {
		if len(plain) <= len(profiled) {
			r, err := b.runRep(&res, nil, false)
			if err != nil {
				return res, err
			}
			plain = append(plain, r)
			continue
		}
		var prof bytes.Buffer
		r, err := b.runRep(&res, &prof, false)
		if err != nil {
			return res, err
		}
		profiled = append(profiled, r)
		s, err := parseProfile(prof.Bytes())
		if err != nil {
			return res, err
		}
		samples = append(samples, s...)
		if err := writeOut(o, "cpu", "pprof", prof.Bytes()); err != nil {
			return res, err
		}
	}

	hostMetrics(&res, warm, plain, profiled)
	// 0 on the open loop, which computes no artifacts.
	res.set("analysis.artifacts_ms", "ms", 1e3*median(spans.durations("analysis.artifacts")))
	b.simMetrics(&res, warm)
	shares := ledgerShares(samples)
	for _, bucket := range slices.Concat(ledgerLayers, []string{"gc", "other"}) {
		res.set("cpu_share."+bucket, "ratio", shares[bucket])
	}
	// The visit loop and the phase split load the first campaign's
	// corpus.
	in := b.inputs[0]
	cfg := b.config(in)
	if err := b.visitLoop(&res, cfg, in); err != nil {
		return res, err
	}
	if err := b.phaseSplit(&res, cfg, in, warm.dss[0]); err != nil {
		return res, err
	}
	if err := layerBenches(&res); err != nil {
		return res, err
	}
	res.note("workload %s (%s loop), seed %d, traced: %d plain and %d profiled repetitions", w.name, loopName(w), o.seed, len(plain), len(profiled))
	res.note("output sha256 %s", warm.out.digest)
	for _, r := range append(plain, profiled...) {
		res.Attempted += r.out.attempted()
		res.Failed += r.out.failures()
	}
	data, err := spans.json()
	if err != nil {
		return res, err
	}
	return res, writeOut(o, "spans", "json", data)
}

// writeOut saves a traced run's artifact as <out>/<kind>-<workload>-<seed>.<ext>.
func writeOut(o options, kind, ext string, data []byte) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-%s-%d.%s", kind, o.workload, o.seed, ext)
	return os.WriteFile(filepath.Join(o.outDir, name), data, 0o644)
}

// hostMetrics sets the host-time per-layer metrics of the repetitions:
// the per-visit costs, the event rate, GC cost and the profiler's
// overhead.
func hostMetrics(res *result, warm rep, plain, profiled []rep) {
	var walls, profWalls, gcShare, gcCycles []float64
	for _, r := range plain {
		walls = append(walls, r.cost.wall.Seconds())
		if r.cost.totalCPU > 0 {
			gcShare = append(gcShare, r.cost.gcCPU/r.cost.totalCPU)
		}
		gcCycles = append(gcCycles, float64(r.cost.gcCycles))
	}
	for _, r := range profiled {
		profWalls = append(profWalls, r.cost.wall.Seconds())
	}
	c := medianCosts(plain)
	res.set("campaign.visits_per_s", "1/s", c.visitsPerS)
	res.set("campaign.cpu_ms_per_visit", "ms", c.cpuMsPerVisit)
	res.set("campaign.alloc_mb_per_visit", "MB", c.allocMBPerVisit)
	res.set("runtime.peak_heap_mb", "MB", c.peakHeapMB)
	visits := float64(warm.out.visits)
	res.set("simnet.events_per_visit", "count", float64(warm.out.events)/visits)
	res.set("simnet.events_per_s", "1/s", float64(warm.out.events)/median(walls))
	res.set("runtime.gc_cpu_share", "ratio", median(gcShare))
	res.set("runtime.gc_cycles_per_1k_visits", "count", 1e3*median(gcCycles)/visits)
	res.set("trace.overhead", "ratio", median(profWalls)/median(walls))
}

// simMetrics sets the simulated per-layer counts, summed over the
// repetition's campaigns. They are properties of the simulated output,
// identical in every repetition at one seed.
func (b *bench) simMetrics(res *result, r rep) {
	out := r.out
	var rec simnet.RecoveryStats
	var slow uint64
	var conns, resumed, hits, misses, stampedes, universes int64
	for k, ds := range r.dss {
		rec.Add(ds.Stats.Recovery)
		for _, key := range ds.Metrics.Keys() {
			counts := ds.Metrics.Lookup(key).PLTHist.Counts()
			slow += counts[len(counts)-1] // PLT beyond the last bound, 30 s
		}
		c, rs, h, m, st := connAndCacheCounts(ds)
		conns, resumed, hits, misses, stampedes = conns+c, resumed+rs, hits+h, misses+m, stampedes+st
		cfg := b.config(b.inputs[k])
		built := int64(len(cfg.Modes) * len(cfg.Vantages) * cfg.ProbesPerVantage)
		if b.w.open {
			tc := cfg.Traffic.WithDefaults()
			// Each user shard runs every epoch in a fresh universe.
			built *= int64((tc.Users+tc.UsersPerShard-1)/tc.UsersPerShard) * int64(len(ds.Traffic.Epochs))
		} else {
			built *= int64((len(ds.Corpus.Pages) + 127) / 128) // one per shard of core's default 128 pages
		}
		universes += built
	}
	perK := func(n int64) float64 { return 1e3 * ratio(n, out.entries) }
	res.set("tcpsim.rto_per_1k_fetches", "count", perK(rec.Timeouts))
	res.set("tcpsim.retransmits_per_1k_fetches", "count", perK(rec.Retransmits))
	res.set("quicsim.pto_per_1k_fetches", "count", perK(rec.ProbeFires))
	res.set("quicsim.lost_per_1k_fetches", "count", perK(rec.PacketsDeclaredLost))
	res.set("browser.fetches_per_visit", "count", ratio(out.entries, out.measured))
	res.set("browser.retries_per_1k_fetches", "count", perK(out.retries))
	res.set("browser.watchdog_page_share", "ratio", ratio(int64(slow), out.measured))
	res.set("browser.conns_per_visit", "count", ratio(conns, out.measured))
	res.set("browser.resumed_conn_share", "ratio", ratio(resumed, conns))
	res.set("cdn.edge_hit_rate", "ratio", ratio(hits, hits+misses))
	res.set("cdn.stampedes_per_1k_visits", "count", 1e3*ratio(stampedes, out.visits))
	res.set("core.universes_per_1k_visits", "count", 1e3*ratio(universes, out.visits))
}

// connAndCacheCounts reads connection and edge-cache counts of the
// measured visits: from the population engine's counters, or from the
// retained PageLogs of a closed-loop campaign (every entry not on a
// reused connection opened one; x-cache headers mark edge hits).
func connAndCacheCounts(ds *core.Dataset) (conns, resumed, hits, misses, stampedes int64) {
	if ds.Traffic != nil {
		c := ds.Traffic.Counters
		return c.ConnsOpened, c.ResumedConns, c.CacheHits, c.CacheMisses, c.Stampedes
	}
	for _, log := range ds.Logs {
		for i := range log.Pages {
			for _, e := range log.Pages[i].Entries {
				if !e.ReusedConn {
					conns++
					if e.ResumedConn {
						resumed++
					}
				}
				switch e.Header["x-cache"] {
				case "HIT":
					hits++
				case "MISS":
					misses++
				}
			}
		}
	}
	return conns, resumed, hits, misses, 0
}

// loopPages bounds the pages each universe of the visit loop loads.
const loopPages = 32

// loopView is the first loopPages pages of the corpus, as a campaign
// shard sees a page range.
func loopView(c *webgen.Corpus) *webgen.Corpus {
	return &webgen.Corpus{
		Pages:        c.Pages[:min(loopPages, len(c.Pages))],
		H3Support:    c.H3Support,
		HostProvider: c.HostProvider,
		H1Only:       c.H1Only,
	}
}

// newLoopUniverse builds one universe of the visit loop the way a
// campaign shard does, inside a core.NewUniverse span.
func (b *bench) newLoopUniverse(cfg core.CampaignConfig, in input, mode browser.Mode, vi int, tracer *trace.Tracer) (*core.Universe, *browser.Browser, error) {
	sp := b.spans.begin("core.NewUniverse", 0)
	ucfg := core.UniverseConfig{
		Seed:     cfg.Seed + uint64(vi),
		Corpus:   loopView(in.corpus),
		Topology: in.topo,
		Vantage:  cfg.Vantages[vi],
		LossRate: core.DefaultBaselineLoss,
		Impair:   cfg.Impairment,
		Trace:    tracer,
	}
	if cfg.Traffic != nil {
		ucfg.EdgeTTL = cfg.Traffic.CacheTTL
	}
	u, err := core.NewUniverse(ucfg)
	b.spans.end(sp)
	if err != nil {
		return nil, nil, err
	}
	br := u.NewBrowser(browser.Config{Mode: mode, EnableZeroRTT: true, HandshakeCPU: 300 * time.Microsecond})
	return u, br, nil
}

// visitLoop calls core.NewUniverse and Universe.RunVisit directly —
// per mode and vantage, a warm then a measured pass over the first
// loopPages pages with sessions cleared between visits — and times
// each call in a span.
func (b *bench) visitLoop(res *result, cfg core.CampaignConfig, in input) error {
	for _, mode := range cfg.Modes {
		for vi := range cfg.Vantages {
			u, br, err := b.newLoopUniverse(cfg, in, mode, vi, nil)
			if err != nil {
				return err
			}
			for pass := 0; pass < 2; pass++ {
				for i := range loopView(in.corpus).Pages {
					sp := b.spans.begin("core.RunVisit", 0)
					_, err := u.RunVisit(br, &in.corpus.Pages[i])
					b.spans.end(sp)
					if err != nil {
						u.Close()
						return err
					}
					br.ClearSessions()
				}
			}
			u.Close()
		}
	}
	visits := b.spans.durations("core.RunVisit")
	ms := make([]float64, len(visits))
	for i, v := range visits {
		ms[i] = 1e3 * v
	}
	tail := tailPercentile(len(ms))
	res.set("browser.visit_host_ms.p50", "ms", percentile(ms, 50))
	res.set("browser.visit_host_ms.tail", "ms", percentile(ms, tail))
	res.set("browser.visit_host_ms.tail_pct", "percentile", tail)
	res.set("browser.visit_host_ms.samples", "count", float64(len(ms)))
	res.set("core.universe_ms", "ms", 1e3*median(b.spans.durations("core.NewUniverse")))
	return nil
}

// phaseSplit sets the simulated-time share of each visit phase. Closed
// loops rerun the campaign with TracePhases; the population engine
// cannot trace, so its split comes from traced visit-loop visits over its
// corpus instead.
func (b *bench) phaseSplit(res *result, cfg core.CampaignConfig, in input, untraced *core.Dataset) error {
	var sums [sketch.NumPhases]int64
	if b.w.open {
		tracer := trace.New(0, func(v *trace.VisitRecord) {
			pb := trace.AttributeVisit(v)
			for i, d := range []time.Duration{pb.Resolve, pb.Connect, pb.Handshake, pb.Stall, pb.Transfer, pb.Other} {
				sums[i] += int64(d)
			}
		})
		for _, mode := range cfg.Modes {
			u, br, err := b.newLoopUniverse(cfg, in, mode, 0, tracer)
			if err != nil {
				return err
			}
			for i := range loopView(in.corpus).Pages {
				if _, err := u.RunVisit(br, &in.corpus.Pages[i]); err != nil {
					u.Close()
					return err
				}
				br.ClearSessions()
			}
			u.Close()
		}
	} else {
		tc := cfg
		tc.TracePhases = true
		sp := b.spans.begin("core.RunCampaign.traced", 0)
		ds, err := core.RunCampaign(tc)
		b.spans.end(sp)
		if err != nil {
			return fmt.Errorf("traced campaign: %w", err)
		}
		for _, k := range ds.Metrics.Keys() {
			for i, ns := range ds.Metrics.Lookup(k).PhaseSumNs {
				sums[i] += ns
			}
		}
		traced, err := digest(ds, false)
		if err != nil {
			return err
		}
		plain, err := digest(untraced, false)
		if err != nil {
			return err
		}
		if traced != plain {
			res.fail("TracePhases changed the output digest from %s to %s", plain, traced)
		}
	}
	var total int64
	for _, ns := range sums {
		total += ns
	}
	for i, name := range sketch.PhaseNames {
		res.set("phase_share."+name, "ratio", ratio(sums[i], total))
	}
	return nil
}
