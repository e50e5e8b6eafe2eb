package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"h3cdn/internal/core"
	"h3cdn/internal/webgen"
)

const (
	// setupRepeats is how often a run builds its inputs; setup_s is the
	// median, so neither the first, cold build nor one slow build moves
	// it.
	setupRepeats = 31
	// minReps is the fewest timed repetitions a run reports medians over,
	// however short --seconds is.
	minReps = 3
)

// bench is one run's state: the workload, its inputs, and the checks
// every repetition must pass.
type bench struct {
	w      workload
	o      options
	want   expected
	inputs []input
	spans  *spanLog // nil on untraced runs
	first  string   // the first repetition's digest, which later ones must reproduce
}

// input is one campaign of a repetition: its seed, corpus and topology.
type input struct {
	seed   uint64
	corpus *webgen.Corpus
	topo   *core.Topology
}

// subSeed derives the seed of a repetition's k-th campaign; the first
// campaign runs at the run seed itself.
func subSeed(seed uint64, k int) uint64 { return seed + uint64(k)*0x9E3779B97F4A7C15 }

func newBench(w workload, o options, spans *spanLog) (*bench, error) {
	want, err := loadExpected()
	if err != nil {
		return nil, err
	}
	return &bench{w: w, o: o, want: want, spans: spans}, nil
}

// setup builds every campaign's corpus and topology, setupRepeats times
// over, and returns each build's host seconds. The last build is kept.
func (b *bench) setup() []float64 {
	secs := make([]float64, setupRepeats)
	for i := range secs {
		runtime.GC() // every build starts from the same heap
		start := time.Now()
		sp := b.spans.begin("setup", 0)
		b.inputs = b.inputs[:0]
		for k := 0; k < b.w.campaigns; k++ {
			in := input{seed: subSeed(b.o.seed, k)}
			g := b.spans.begin("webgen.Generate", sp)
			in.corpus = webgen.Generate(b.w.corpus(in.seed))
			b.spans.end(g)
			t := b.spans.begin("core.NewTopology", sp)
			in.topo = core.NewTopology(in.corpus)
			b.spans.end(t)
			b.inputs = append(b.inputs, in)
		}
		b.spans.end(sp)
		secs[i] = time.Since(start).Seconds()
	}
	return secs
}

func (b *bench) config(in input) core.CampaignConfig {
	return b.w.campaign(in.seed, in.corpus, in.topo)
}

// rep is one timed repetition: every campaign of the workload.
type rep struct {
	cost repCost
	out  outcome         // summed over the campaigns
	dss  []*core.Dataset // kept only when asked for
}

// runRep runs the workload's campaigns as one timed section — for
// closed loops, through the Table II and Fig. 2–7 computation — and
// checks their output outside the timed section. A non-nil prof
// receives a CPU profile of the timed section; keep holds on to the
// datasets.
func (b *bench) runRep(res *result, prof *bytes.Buffer, keep bool) (rep, error) {
	dss := make([]*core.Dataset, len(b.inputs))
	cost, err := timeSection(func() error {
		if prof != nil {
			if err := pprof.StartCPUProfile(prof); err != nil {
				return err
			}
			defer pprof.StopCPUProfile()
		}
		sp := b.spans.begin("rep", 0)
		defer b.spans.end(sp)
		for k, in := range b.inputs {
			c := b.spans.begin("core.RunCampaign", sp)
			ds, err := core.RunCampaign(b.config(in))
			b.spans.end(c)
			if err != nil {
				return err
			}
			if !b.w.open {
				a := b.spans.begin("analysis.artifacts", sp)
				computeArtifacts(ds)
				b.spans.end(a)
			}
			dss[k] = ds
		}
		return nil
	})
	if err != nil {
		return rep{}, fmt.Errorf("%s campaign: %w", b.w.name, err)
	}
	r := rep{cost: cost}
	for k, ds := range dss {
		o, err := newOutcome(ds, b.w.open)
		if err != nil {
			return rep{}, err
		}
		checkCampaign(res, b.w, b.config(b.inputs[k]), ds, o)
		r.out.add(o)
	}
	if b.first == "" {
		b.first = r.out.digest
		pltNote(res, dss[0])
	}
	checkDigest(res, b.w, r.out.digest, b.first, b.o.seed, b.want)
	if keep {
		r.dss = dss
	}
	return r, nil
}

// timedReps runs one untimed warm-up repetition, then repetitions until
// the run has measured for dur and at least minReps of them.
func (b *bench) timedReps(res *result, dur time.Duration) ([]rep, error) {
	if _, err := b.runRep(res, nil, false); err != nil {
		return nil, err
	}
	var reps []rep
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < dur {
		r, err := b.runRep(res, nil, false)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// plainRun is the untraced run: it reports the end-to-end metrics.
func plainRun(w workload, o options) (result, error) {
	res := newResult()
	b, err := newBench(w, o, nil)
	if err != nil {
		return res, err
	}
	setups := b.setup()
	reps, err := b.timedReps(&res, time.Duration(o.seconds)*time.Second)
	if err != nil {
		return res, err
	}
	c := medianCosts(reps)
	out := reps[0].out
	res.set("setup_s", "s", median(setups))
	res.set("fetches_per_s", "1/s", c.fetchesPerS)
	res.set("cpu_us_per_fetch", "us", c.cpuUsPerFetch)
	res.set("alloc_kb_per_fetch", "KB", c.allocKBPerFetch)
	res.set("fetch_success_share", "ratio", out.fetchSuccessShare())
	res.set("visit_admit_share", "ratio", out.visitAdmitShare())
	for _, r := range reps {
		res.Attempted += r.out.attempted()
		res.Failed += r.out.failures()
	}
	res.note("workload %s (%s loop), seed %d: %d timed repetitions of %d campaign(s), %d visits, %d fetches", w.name, loopName(w), o.seed, len(reps), w.campaigns, out.visits, out.fetches)
	res.note("output sha256 %s", out.digest)
	walls := make([]string, len(reps))
	for i, r := range reps {
		walls[i] = fmt.Sprintf("%.3f/%.2f", r.cost.wall.Seconds(), float64(r.cost.cpu)/float64(time.Microsecond)/float64(r.out.fetches))
	}
	res.note("repetition wall s / cpu us per fetch: %s", strings.Join(walls, " "))
	res.note("per visit: visits_per_s %.6g 1/s, cpu_ms_per_visit %.6g ms, alloc_mb_per_visit %.6g MB; peak_heap_mb %.6g MB",
		c.visitsPerS, c.cpuMsPerVisit, c.allocMBPerVisit, c.peakHeapMB)
	res.note("failed_fetch_share %.6g (%d of %d measured fetches), shed_visit_share %.6g (%d of %d visits)",
		1-out.fetchSuccessShare(), out.failed, out.entries, 1-out.visitAdmitShare(), out.shed, out.generated)
	return res, nil
}

func loopName(w workload) string {
	if w.open {
		return "open"
	}
	return "closed"
}

// costs are the medians over repetitions of a run's host costs.
type costs struct {
	fetchesPerS, cpuUsPerFetch, allocKBPerFetch float64
	visitsPerS, cpuMsPerVisit, allocMBPerVisit  float64
	peakHeapMB                                  float64
}

func medianCosts(reps []rep) costs {
	var fps, cpuF, allocF, vps, cpuV, allocV, peak []float64
	for _, r := range reps {
		f, v := float64(r.out.fetches), float64(r.out.visits)
		cpu, alloc := float64(r.cost.cpu), float64(r.cost.allocBytes)
		fps = append(fps, f/r.cost.wall.Seconds())
		cpuF = append(cpuF, cpu/float64(time.Microsecond)/f)
		allocF = append(allocF, alloc/1e3/f)
		vps = append(vps, v/r.cost.wall.Seconds())
		cpuV = append(cpuV, cpu/float64(time.Millisecond)/v)
		allocV = append(allocV, alloc/1e6/v)
		peak = append(peak, float64(r.cost.peakLive)/1e6)
	}
	return costs{
		fetchesPerS: median(fps), cpuUsPerFetch: median(cpuF), allocKBPerFetch: median(allocF),
		visitsPerS: median(vps), cpuMsPerVisit: median(cpuV), allocMBPerVisit: median(allocV),
		peakHeapMB: median(peak),
	}
}
