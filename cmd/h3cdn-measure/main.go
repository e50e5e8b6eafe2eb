// Command h3cdn-measure runs the paper's measurement campaign on the
// simulated Internet and writes the resulting dataset (HAR logs over both
// browsing modes) as JSON.
//
// Usage:
//
//	h3cdn-measure [flags] > dataset.json
//
// The default configuration mirrors the paper: 325 pages, the three
// CloudLab vantage points, H2 and H3 browsing modes, warm-up visit plus
// measured visit. Probe count per vantage defaults to 1 (the paper ran
// 3); raise -probes for smoother statistics at ~3x the runtime per extra
// probe.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"h3cdn/internal/core"
	"h3cdn/internal/har"
	"h3cdn/internal/simnet"
	"h3cdn/internal/simnet/traces"
	"h3cdn/internal/traffic"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		seed        = flag.Uint64("seed", 2022, "campaign seed")
		pages       = flag.Int("pages", 325, "number of websites")
		probes      = flag.Int("probes", 1, "probes per vantage point")
		loss        = flag.Float64("loss", 0, "path loss rate (0 = default baseline, negative = lossless)")
		consecutive = flag.Bool("consecutive", false, "consecutive-visit protocol (§VI-D)")
		workers     = flag.Int("workers", 0, "concurrent shard workers (0 = GOMAXPROCS, 1 = inline)")

		burstLoss    = flag.Float64("burst-loss", 0, "Gilbert–Elliott average loss rate (0 disables bursty loss)")
		burstLen     = flag.Float64("burst-len", 4, "Gilbert–Elliott mean burst length in packets")
		jitter       = flag.Duration("jitter", 0, "uniform extra per-packet delay in [0, jitter)")
		reorder      = flag.Float64("reorder", 0, "probability a delivered packet is held back")
		reorderDelay = flag.Duration("reorder-delay", 2*time.Millisecond, "hold-back duration for reordered packets")
		outages      = flag.String("outage", "", "scheduled path outages, comma-separated start-end pairs (e.g. 2s-4s,10s-11s)")
		retries      = flag.Int("retries", 0, "browser re-fetch budget per resource after transport errors")

		linkTrace  = flag.String("link-trace", "", "drive the download link from a capacity trace: a synthetic profile ("+strings.Join(traces.Names(), ", ")+") or a Mahimahi trace file")
		traceScale = flag.Float64("trace-scale", 1, "multiply the link trace's capacity samples by this factor")

		trafficOn      = flag.Bool("traffic", false, "run an open-loop population traffic campaign (seeded users contending on shared TTL edge caches) instead of the one-visit-per-page census")
		trafficUsers   = flag.Int("traffic-users", 256, "population size per mode and vantage")
		trafficShard   = flag.Int("traffic-users-per-shard", 0, "user-partition granularity: users simulated per shard (0 = default)")
		trafficRate    = flag.Float64("traffic-rate", 4, "population mean session-arrival rate, sessions per second of virtual time")
		trafficDiurnal = flag.Float64("traffic-diurnal", 0, "diurnal arrival-rate modulation amplitude in [0, 1) (0 = flat rate)")
		trafficPeriod  = flag.Duration("traffic-diurnal-period", 0, "diurnal modulation period (0 = 1h)")
		trafficDur     = flag.Duration("traffic-duration", 2*time.Minute, "virtual-time horizon of the traffic campaign")
		trafficEpoch   = flag.Duration("traffic-epoch", 0, "checkpoint epoch interval (0 = one epoch spanning the horizon)")
		trafficVisits  = flag.Float64("traffic-session-visits", 0, "mean visits per session, geometric with minimum 1 (0 = default 3)")
		trafficThink   = flag.Duration("traffic-think", 0, "mean think time between a session's visits (0 = default 5s)")
		trafficZipf    = flag.Float64("traffic-zipf", 0, "page-popularity Zipf exponent, must be > 1 (0 = default 1.2)")
		trafficTTL     = flag.Duration("traffic-ttl", 0, "edge-cache entry lifetime (0 = default 60s)")
		trafficFlight  = flag.Int("traffic-max-inflight", 0, "per-shard bound on concurrently loading visits; arrivals at the bound are shed (0 = default 64)")
		trafficCkpt    = flag.String("traffic-checkpoint", "", "checkpoint directory: each shard saves state per epoch and resumes from it on the next run (created if missing)")
		trafficHalt    = flag.Int("traffic-halt-epochs", 0, "stop each shard after this many epochs this process, checkpoints intact — exercises kill/resume (0 = run to completion)")

		retention  = flag.String("har-retention", "all", "HAR retention policy: all, none, or sample:N (N PageLogs per shard); metrics always cover every page")
		qlogDir    = flag.String("qlog", "", "write per-shard qlog JSONL trace files into this directory (created if missing)")
		out        = flag.String("o", "", "output file (default stdout)")
		cpuprofile = flag.String("cpuprofile", "", "write CPU profile to file")
		memprofile = flag.String("memprofile", "", "write heap profile to file")
		memstats   = flag.Bool("memstats", false, "report peak heap and cumulative allocation after the campaign")
	)
	flag.Parse()

	// Usage errors exit 2 (the flag package's own convention for bad
	// flags), before any file creation or simulation work.
	if err := validateImpairFlags(*burstLoss, *jitter, *reorder, *reorderDelay, *traceScale); err != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
		return 2
	}
	ret, err := har.ParseRetention(*retention)
	if err != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-measure: -har-retention: %v\n", err)
		return 2
	}
	tcfg, err := buildTrafficConfig(trafficFlags{
		enabled:       *trafficOn,
		users:         *trafficUsers,
		usersPerShard: *trafficShard,
		rate:          *trafficRate,
		diurnal:       *trafficDiurnal,
		diurnalPeriod: *trafficPeriod,
		duration:      *trafficDur,
		epoch:         *trafficEpoch,
		sessionVisits: *trafficVisits,
		think:         *trafficThink,
		zipf:          *trafficZipf,
		ttl:           *trafficTTL,
		maxInFlight:   *trafficFlight,
		checkpoint:    *trafficCkpt,
		haltEpochs:    *trafficHalt,
	}, *consecutive, *qlogDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	// Open the heap-profile file up front so a bad path fails before the
	// campaign runs, not after.
	var memf *os.File
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
			return 1
		}
		defer f.Close()
		memf = f
	}

	// Open the dataset file up front too: a bad -o path must fail
	// before the campaign runs, not after minutes of simulation.
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}

	impair, err := buildImpairment(*burstLoss, *burstLen, *jitter, *reorder, *reorderDelay, *outages)
	if err != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
		return 1
	}

	tl, err := buildLinkTrace(*linkTrace, *traceScale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
		return 1
	}

	// The campaign expects the qlog directory to exist; create it before
	// the run so a bad path fails fast. Same for the traffic checkpoint
	// directory.
	if *qlogDir != "" {
		if err := os.MkdirAll(*qlogDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
			return 1
		}
	}
	if tcfg != nil && tcfg.CheckpointDir != "" {
		if err := os.MkdirAll(tcfg.CheckpointDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
			return 1
		}
	}

	cfg := core.CampaignConfig{
		Seed:             *seed,
		CorpusConfig:     webgen.Config{NumPages: *pages},
		Vantages:         vantage.Points(),
		ProbesPerVantage: *probes,
		LossRate:         *loss,
		Consecutive:      *consecutive,
		Workers:          *workers,
		Impairment:       impair,
		LinkTrace:        tl,
		FetchRetries:     *retries,
		QlogDir:          *qlogDir,
		Retention:        ret,
		Traffic:          tcfg,
	}
	if tl != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-measure: link trace %s: %d epochs over %v, mean %.1f Mbit/s\n",
			tl.Name(), tl.Epochs(), tl.Period(), tl.MeanBps()/1e6)
	}

	// Peak-heap sampling for -memstats: the post-campaign MemStats
	// snapshot only shows what is still live, so a sampler tracks the
	// in-use high-water mark while shards run.
	var (
		peakHeap    uint64
		samplerStop chan struct{}
		samplerDone chan struct{}
	)
	sampleHeap := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if inUse := ms.HeapInuse + ms.StackInuse; inUse > peakHeap {
			peakHeap = inUse
		}
	}
	if *memstats {
		samplerStop = make(chan struct{})
		samplerDone = make(chan struct{})
		go func() {
			defer close(samplerDone)
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-samplerStop:
					return
				case <-tick.C:
					sampleHeap()
				}
			}
		}()
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "h3cdn-measure: %d pages x %d vantages x %d probes, consecutive=%v\n",
		*pages, len(cfg.Vantages), *probes, *consecutive)
	if tcfg != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-measure: traffic: %d users, %.2f sessions/s over %v (epoch %v, TTL %v)\n",
			tcfg.Users, tcfg.ArrivalRate, tcfg.Duration, tcfg.EpochInterval, tcfg.CacheTTL)
	}
	ds, err := core.RunCampaign(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
		return 1
	}
	elapsed := time.Since(start)
	if *memstats {
		close(samplerStop)
		<-samplerDone
		sampleHeap()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Fprintf(os.Stderr, "h3cdn-measure: memstats peak-heap=%.1fMB total-alloc=%.1fMB gc-cycles=%d\n",
			float64(peakHeap)/(1<<20), float64(ms.TotalAlloc)/(1<<20), ms.NumGC)
	}
	fmt.Fprintf(os.Stderr, "h3cdn-measure: retention=%s pages folded=%d retained=%d\n",
		ret, ds.Stats.PagesFolded, ds.Stats.PagesRetained)
	if tr := ds.Traffic; tr != nil {
		c := tr.Counters
		hitRate := 0.0
		if total := c.CacheHits + c.CacheMisses; total > 0 {
			hitRate = float64(c.CacheHits) / float64(total)
		}
		fmt.Fprintf(os.Stderr, "h3cdn-measure: traffic sessions=%d visits=%d completed=%d shed=%d\n",
			c.SessionsStarted, c.VisitsGenerated, c.VisitsCompleted, c.VisitsShed)
		fmt.Fprintf(os.Stderr, "h3cdn-measure: traffic edge hit-rate=%.1f%% expired=%d stampedes=%d 0-rtt=%.2f\n",
			100*hitRate, c.CacheExpired, c.Stampedes, tr.ResumptionFraction())
	}
	fmt.Fprintf(os.Stderr, "h3cdn-measure: done in %v\n", elapsed.Round(time.Second))
	fmt.Fprintf(os.Stderr, "h3cdn-measure: %d events executed (%.0f events/sec)\n",
		ds.Stats.Events, float64(ds.Stats.Events)/elapsed.Seconds())
	if *qlogDir != "" {
		fmt.Fprintf(os.Stderr, "h3cdn-measure: qlog traces written to %s\n", *qlogDir)
	}
	if impair != nil {
		r := ds.Stats.Recovery
		fmt.Fprintf(os.Stderr, "h3cdn-measure: drops burst=%d outage=%d reordered=%d\n",
			ds.Stats.BurstDrops, ds.Stats.OutageDrops, ds.Stats.Reordered)
		fmt.Fprintf(os.Stderr, "h3cdn-measure: recovery rto=%d fastrtx=%d rtx=%d pto=%d lost=%d outage-crossings=%d conn-failures=%d fetch-retries=%d\n",
			r.Timeouts, r.FastRetransmits, r.Retransmits, r.ProbeFires,
			r.PacketsDeclaredLost, r.OutageCrossings, r.ConnFailures, r.FetchRetries)
	}

	if memf != nil {
		runtime.GC()
		if err := pprof.WriteHeapProfile(memf); err != nil {
			fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
			return 1
		}
	}

	if err := ds.SaveJSON(w); err != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
		return 1
	}
	return 0
}

// validateImpairFlags rejects nonsensical fault/trace knob values —
// negative rates and durations, NaN — before any file or simulation
// work. These are usage errors (exit 2), distinct from runtime failures
// (exit 1): a sweep script with a sign bug should fail its very first
// invocation loudly, not run a campaign under a silently clamped knob.
func validateImpairFlags(burstLoss float64, jitter time.Duration, reorder float64, reorderDelay time.Duration, traceScale float64) error {
	if burstLoss < 0 || math.IsNaN(burstLoss) {
		return fmt.Errorf("-burst-loss %v: must be a non-negative loss rate", burstLoss)
	}
	if jitter < 0 {
		return fmt.Errorf("-jitter %v: must be a non-negative duration", jitter)
	}
	if reorder < 0 || math.IsNaN(reorder) {
		return fmt.Errorf("-reorder %v: must be a non-negative probability", reorder)
	}
	if reorderDelay < 0 {
		return fmt.Errorf("-reorder-delay %v: must be a non-negative duration", reorderDelay)
	}
	if !(traceScale > 0) || math.IsInf(traceScale, 0) {
		return fmt.Errorf("-trace-scale %v: must be a positive finite factor", traceScale)
	}
	return nil
}

// trafficFlags holds the parsed -traffic-* knobs.
type trafficFlags struct {
	enabled       bool
	users         int
	usersPerShard int
	rate          float64
	diurnal       float64
	diurnalPeriod time.Duration
	duration      time.Duration
	epoch         time.Duration
	sessionVisits float64
	think         time.Duration
	zipf          float64
	ttl           time.Duration
	maxInFlight   int
	checkpoint    string
	haltEpochs    int
}

// buildTrafficConfig validates the -traffic-* knobs and assembles the
// campaign's population-traffic config, or returns nil when -traffic is
// off. Like validateImpairFlags these are usage errors (exit 2) caught
// before any simulation work: zero users or a NaN arrival rate in a
// sweep script should fail the first invocation loudly, as should
// combining -traffic with per-page census machinery it cannot honor
// (-consecutive, -qlog).
func buildTrafficConfig(tf trafficFlags, consecutive bool, qlogDir string) (*traffic.Config, error) {
	if !tf.enabled {
		return nil, nil
	}
	if consecutive {
		return nil, fmt.Errorf("-traffic: incompatible with -consecutive (sessions already revisit pages)")
	}
	if qlogDir != "" {
		return nil, fmt.Errorf("-traffic: incompatible with -qlog")
	}
	if tf.haltEpochs < 0 {
		return nil, fmt.Errorf("-traffic-halt-epochs %d: must be non-negative", tf.haltEpochs)
	}
	tc := &traffic.Config{
		Users:            tf.users,
		UsersPerShard:    tf.usersPerShard,
		ArrivalRate:      tf.rate,
		DiurnalAmplitude: tf.diurnal,
		DiurnalPeriod:    tf.diurnalPeriod,
		Duration:         tf.duration,
		EpochInterval:    tf.epoch,
		SessionVisits:    tf.sessionVisits,
		ThinkTime:        tf.think,
		ZipfS:            tf.zipf,
		CacheTTL:         tf.ttl,
		MaxInFlight:      tf.maxInFlight,
		CheckpointDir:    tf.checkpoint,
		HaltAfterEpochs:  tf.haltEpochs,
	}
	if err := tc.Validate(); err != nil {
		return nil, err
	}
	// Fill defaults here so the pre-run summary prints the effective
	// values (the campaign would default them anyway).
	*tc = tc.WithDefaults()
	return tc, nil
}

// buildLinkTrace resolves the -link-trace spec: a synthetic profile name
// from the bundled traces package, else a Mahimahi trace file path. The
// -trace-scale factor applies either way.
func buildLinkTrace(spec string, scale float64) (*simnet.TraceLink, error) {
	if spec == "" {
		return nil, nil
	}
	var (
		tl  *simnet.TraceLink
		err error
	)
	if traces.Describe(spec) != "" {
		tl, err = traces.Profile(spec)
	} else {
		f, ferr := os.Open(spec)
		if ferr != nil {
			return nil, fmt.Errorf("link-trace %q: not a synthetic profile (%s) and not a readable file: %v",
				spec, strings.Join(traces.Names(), ", "), ferr)
		}
		defer f.Close()
		tl, err = simnet.ParseMahimahiTrace(filepath.Base(spec), f, 0, 0)
	}
	if err != nil {
		return nil, err
	}
	return tl.Scaled(scale)
}

// buildImpairment assembles the fault profile from CLI knobs, or returns
// nil when every knob is off so campaigns keep the unimpaired fast path.
func buildImpairment(burstLoss, burstLen float64, jitter time.Duration, reorder float64, reorderDelay time.Duration, outageSpec string) (*simnet.Impairment, error) {
	outages, err := parseOutages(outageSpec)
	if err != nil {
		return nil, err
	}
	if burstLoss <= 0 && jitter <= 0 && reorder <= 0 && len(outages) == 0 {
		return nil, nil
	}
	im := simnet.GilbertElliott(burstLoss, burstLen)
	im.JitterMax = jitter
	if reorder > 0 {
		im.ReorderRate = reorder
		im.ReorderDelay = reorderDelay
	}
	im.Outages = outages
	return &im, nil
}

// parseOutages parses comma-separated start-end duration pairs, e.g.
// "2s-4s,10s-11s".
func parseOutages(spec string) ([]simnet.Outage, error) {
	if spec == "" {
		return nil, nil
	}
	var out []simnet.Outage
	for _, field := range strings.Split(spec, ",") {
		lo, hi, ok := strings.Cut(strings.TrimSpace(field), "-")
		if !ok {
			return nil, fmt.Errorf("outage %q: want start-end", field)
		}
		start, err := time.ParseDuration(lo)
		if err != nil {
			return nil, fmt.Errorf("outage %q: %v", field, err)
		}
		end, err := time.ParseDuration(hi)
		if err != nil {
			return nil, fmt.Errorf("outage %q: %v", field, err)
		}
		if end <= start {
			return nil, fmt.Errorf("outage %q: end must follow start", field)
		}
		out = append(out, simnet.Outage{Start: start, End: end})
	}
	return out, nil
}
