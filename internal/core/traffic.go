package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/cdn"
	"h3cdn/internal/har"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/sketch"
	"h3cdn/internal/traffic"
)

// This file is the population driver of the shard runner (shard.go):
// where the closed loop walks every corpus page twice (warm + measured),
// a seeded user population decides what gets visited and when. Sessions
// arrive by a Poisson process, browse Zipf-popular pages with think
// times, and contend on shared TTL edge caches — hit rates, resumption
// fractions, stampedes, and the cold/warm PLT split all emerge rather
// than being scripted. It also holds the epoch checkpoints population
// shards save and resume from.

// trafficEngine drives one epoch's sessions on one universe. Everything
// here runs on the universe's scheduler goroutine (browser callbacks and
// timer events), so plain fields need no synchronization.
type trafficEngine struct {
	sh       *shard
	u        *Universe
	clock    time.Duration // campaign-absolute time of scheduler zero
	endAbs   time.Duration // epoch window end, campaign-absolute
	inFlight int
	epoch    traffic.EpochStat
}

// startSession begins one user's browsing session: a fresh browser (TLS
// tickets and QUIC tokens live for the session, like a browser restart)
// seeded with the user's durable memory — the Alt-Svc hosts they learned
// in previous sessions, which is what lets a returning user open with H3.
func (en *trafficEngine) startSession(user int, sess *traffic.Session) {
	en.sh.rep.Counters.SessionsStarted++
	b := en.u.NewBrowser(browserConfig(en.sh.cfg, en.sh.job.mode))
	b.ImportAltSvc(en.sh.userMem[user])
	en.visit(user, b, sess)
}

// visit runs the session's next page load, then schedules the think gap
// before the one after, until the session plan runs out, the epoch
// window closes, or the in-flight bound sheds the visit.
func (en *trafficEngine) visit(user int, b *browser.Browser, sess *traffic.Session) {
	if en.u.Sched.Now()+en.clock >= en.endAbs {
		// The window closed while this session thought or loaded. The
		// remainder is truncated — not shed, and not generated: the next
		// epoch's arrivals carry the offered load from here.
		en.endSession(user, b)
		return
	}
	c := &en.sh.rep.Counters
	c.VisitsGenerated++
	if en.inFlight >= en.sh.tc.MaxInFlight {
		// Open-loop overload: the PoP is saturated, so the visit is shed
		// (and the user gives up) instead of queueing invisibly.
		c.VisitsShed++
		en.endSession(user, b)
		return
	}
	en.inFlight++
	page := &en.sh.corpus.Pages[sess.NextPage()]
	b.Visit(page, func(l *har.PageLog) {
		en.inFlight--
		en.sh.rep.Counters.VisitsCompleted++
		en.epoch.Visits++
		en.sh.sink.put(l, nil)
		sess.VisitsLeft--
		if sess.VisitsLeft <= 0 {
			en.endSession(user, b)
			return
		}
		// Connections are visit-scoped (the campaign convention — see
		// Universe.visit): close them through the think gap, but keep the
		// browser's session caches, so the next visit's dials resume with
		// the tickets and tokens this one banked. That redial-with-ticket
		// is the population's emergent 0-RTT fraction.
		b.CloseAll()
		en.u.Sched.After(sess.Think(), func() { en.visit(user, b, sess) })
	})
}

// endSession banks the user's durable memory and the session's
// connection accounting, then closes the browser's connections.
func (en *trafficEngine) endSession(user int, b *browser.Browser) {
	if hosts := b.ExportAltSvc(); len(hosts) > 0 {
		en.sh.userMem[user] = hosts
	}
	st := b.Stats()
	en.sh.rep.Counters.ConnsOpened += st.ConnsOpened
	en.sh.rep.Counters.ResumedConns += st.ResumedConns
	b.CloseAll()
}

// runArrivals is the population driver: it plays epoch sh.epoch's
// session arrivals on the universe, drains it to the last straggler, and
// harvests the epoch's edge-contention counters.
func (sh *shard) runArrivals(u *Universe) error {
	tc, e := sh.tc, sh.epoch
	// The window opens on schedule, never at the previous epoch's drain
	// instant: sessions overrunning a window finish in universe time
	// (their cache writes keep those later absolute stamps), but starting
	// the next window at the drain would serialize the whole shard behind
	// its single slowest straggler visit, punching arrival-less holes into
	// the epoch series whenever one page load hits the latency tail.
	start := time.Duration(e) * tc.EpochInterval
	end := min(start+tc.EpochInterval, tc.Duration)
	en := &trafficEngine{sh: sh, u: u, clock: start, endAbs: end, epoch: traffic.EpochStat{Epoch: e}}
	// Epoch workload: arrivals and session plans are label-derived from
	// (seed, epoch, arrival index) — independent of everything the
	// simulation does with them. The shard offers its
	// population-proportional slice of the load.
	users := sh.job.hi - sh.job.lo
	base := tc.ArrivalRate * float64(users) / float64(tc.Users)
	src := seqrand.New(sh.seed).Sub("traffic")
	for i, a := range traffic.Arrivals(src, e, base, users, *tc, start, end) {
		user := a.User
		sess := traffic.NewSession(
			src.Stream("session", strconv.Itoa(e), seqrand.Label("a", i)),
			len(sh.corpus.Pages), *tc)
		u.Sched.After(a.At-start, func() { en.startSession(user, sess) })
	}
	err := u.drain()
	if err == nil && en.inFlight != 0 {
		err = fmt.Errorf("%d visits never completed", en.inFlight)
	}
	if err != nil {
		return fmt.Errorf("traffic epoch %d: %w", e, err)
	}
	// Edge map iteration order is arbitrary but the sums are commutative
	// integers.
	es := &en.epoch
	for _, edge := range u.edges {
		es.CacheHits += edge.CacheHits()
		es.CacheMisses += edge.CacheMisses()
		es.CacheExpired += edge.CacheExpired()
		es.Stampedes += edge.Stampedes()
	}
	c := &sh.rep.Counters
	c.CacheHits += es.CacheHits
	c.CacheMisses += es.CacheMisses
	c.CacheExpired += es.CacheExpired
	c.Stampedes += es.Stampedes
	sh.rep.Epochs = append(sh.rep.Epochs, *es)
	return nil
}

// checkpointDigest hashes every input besides the seed and user range
// that shapes a population shard's epochs: the traffic shape (minus the
// checkpoint directory and the halt switch, which only decide where and
// when a run stops), loss, impairment, retries, server timing, retention
// and corpus size. A checkpoint written under another digest belongs to
// another campaign.
func checkpointDigest(cfg CampaignConfig, tc traffic.Config, pages int) string {
	tc.CheckpointDir, tc.HaltAfterEpochs = "", 0
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%v|%+v|%d|%v|%v|%+v|%d", tc, cfg.LossRate, cfg.Impairment,
		cfg.FetchRetries, cfg.H3WaitOverhead, cfg.MissPenalty, cfg.Retention, pages)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// resume loads the shard's checkpoint, if one exists, into the shard.
func (sh *shard) resume() error {
	cp, err := traffic.Load(sh.ckpt)
	if err != nil || cp == nil {
		return err
	}
	if cp.Seed != sh.seed || cp.Lo != sh.job.lo || cp.Hi != sh.job.hi || cp.Digest != sh.digest {
		return fmt.Errorf("core: checkpoint %s was written by another campaign (seed %d, users [%d,%d), config %s; this shard: seed %d, users [%d,%d), config %s)",
			sh.ckpt, cp.Seed, cp.Lo, cp.Hi, cp.Digest, sh.seed, sh.job.lo, sh.job.hi, sh.digest)
	}
	sh.epoch = cp.Epoch
	for _, um := range cp.Users {
		sh.userMem[um.User-sh.job.lo] = um.AltSvc
	}
	sh.edges = make(map[string][]cdn.CacheEntry, len(cp.Edges))
	for _, ec := range cp.Edges {
		sh.edges[ec.Provider] = ec.Entries
	}
	*sh.rep = cp.Report
	if cp.Metrics != nil {
		sh.acc = cp.Metrics
	}
	sh.sink.pages = cp.Logs
	if len(cp.State) > 0 {
		st := checkpointState{Stats: &sh.stats, Sample: sh.sink.sample}
		if err := json.Unmarshal(cp.State, &st); err != nil {
			return fmt.Errorf("core: checkpoint %s state: %w", sh.ckpt, err)
		}
	}
	return nil
}

// checkpointState is the part of a checkpoint only this package reads:
// the shard's counters and, under sampled retention, its reservoir.
type checkpointState struct {
	Stats  *CampaignStats                   `json:"stats"`
	Sample *sketch.Reservoir[retainedVisit] `json:"sample,omitempty"`
}

// save writes the shard's checkpoint after an epoch.
func (sh *shard) save() error {
	users := make([]traffic.UserMemory, 0, len(sh.userMem))
	for uidx, hosts := range sh.userMem {
		users = append(users, traffic.UserMemory{User: sh.job.lo + uidx, AltSvc: hosts})
	}
	sort.Slice(users, func(i, j int) bool { return users[i].User < users[j].User })
	names := sortedKeys(sh.edges)
	edges := make([]traffic.EdgeCache, len(names))
	for i, nm := range names {
		edges[i] = traffic.EdgeCache{Provider: nm, Entries: sh.edges[nm]}
	}
	state, err := json.Marshal(checkpointState{Stats: &sh.stats, Sample: sh.sink.sample})
	if err != nil {
		return fmt.Errorf("traffic checkpoint state: %w", err)
	}
	return traffic.Save(sh.ckpt, &traffic.Checkpoint{
		Seed: sh.seed, Lo: sh.job.lo, Hi: sh.job.hi, Digest: sh.digest,
		Epoch: sh.epoch, Users: users, Edges: edges,
		Report: *sh.rep, Metrics: sh.acc, Logs: sh.sink.pages, State: state,
	})
}
