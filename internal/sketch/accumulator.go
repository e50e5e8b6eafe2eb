package sketch

import "sort"

// NumPhases is the number of phase buckets a visit attribution carries
// (resolve, connect, handshake, stall, transfer, other — the campaign's
// trace.AttributeVisit taxonomy).
const NumPhases = 6

// PhaseNames labels the phase slots of PhaseSample.Ns and
// GroupMetrics.PhaseSumNs, in slot order.
var PhaseNames = [NumPhases]string{"resolve", "connect", "handshake", "stall", "transfer", "other"}

// DefaultPLTBoundsMs are the fixed histogram bounds (milliseconds) for
// per-group page-load-time histograms.
var DefaultPLTBoundsMs = []float64{50, 100, 200, 500, 1000, 2000, 5000, 10000, 30000}

// Key identifies one accumulation group: a browsing mode at a vantage
// point. Plain strings keep the package free of simulator dependencies.
type Key struct {
	Mode    string
	Vantage string
}

// PhaseSample is one visit's phase attribution in nanoseconds per slot
// (see PhaseNames). The slots partition the visit's PLT.
type PhaseSample struct {
	Ns        [NumPhases]int64
	Truncated bool
}

// VisitSample is the fold unit: everything a finished visit contributes
// to the streamed aggregates. Durations are nanoseconds, so sums stay
// integer-exact and merge-order-independent.
type VisitSample struct {
	PLTNs   int64
	Bytes   int64 // successful-entry body bytes
	Entries int64 // total entries
	Failed  int64 // entries that exhausted their retry budget
	Retries int64 // transparent re-fetches across all entries
	Reused  int64 // entries on a reused connection
	Resumed int64 // entries on a session-resumed connection
	// CacheHits/CacheMisses count entries served from / missed at a CDN
	// edge cache (x-cache response headers); entries without the header
	// (origin-served) count in neither. Zero both when the campaign does
	// not classify warmth.
	CacheHits   int64
	CacheMisses int64
	// Warm classifies the whole visit for the cold-vs-warm PLT split: the
	// document was served from edge cache. Only consulted when the visit
	// observed at least one cache-classifiable entry.
	Warm bool
	// Phase carries the visit's phase attribution when tracing was on.
	Phase *PhaseSample
}

// GroupMetrics holds one group's mergeable aggregates: a PLT quantile
// sketch and fixed-bucket histogram, integer sums and counters, and
// per-phase quantile sketches over the traced phase buckets. All
// duration sums are nanoseconds; sketches and histograms hold
// milliseconds (the repo's analysis unit).
type GroupMetrics struct {
	alpha float64

	Pages    uint64     `json:"pages"`
	PLT      *Quantile  `json:"plt"`     // ms
	PLTHist  *Histogram `json:"pltHist"` // ms, DefaultPLTBoundsMs
	PLTSumNs int64      `json:"pltSumNs"`

	Bytes   Counter `json:"bytes"`
	Entries Counter `json:"entries"`
	Failed  Counter `json:"failed,omitempty"`
	Retries Counter `json:"retries,omitempty"`
	Reused  Counter `json:"reused,omitempty"`
	Resumed Counter `json:"resumed,omitempty"`

	// Cache-warmth aggregates cover only visits whose samples carried
	// cache classification (population-traffic campaigns): entry-level
	// edge hit/miss totals plus the visit-level cold/warm PLT split.
	CacheHits   Counter   `json:"cacheHits,omitempty"`
	CacheMisses Counter   `json:"cacheMisses,omitempty"`
	ColdPages   uint64    `json:"coldPages,omitempty"`
	WarmPages   uint64    `json:"warmPages,omitempty"`
	PLTCold     *Quantile `json:"pltCold,omitempty"` // ms
	PLTWarm     *Quantile `json:"pltWarm,omitempty"` // ms

	// Phase aggregates cover only visits that carried a PhaseSample.
	PhasePages     uint64               `json:"phasePages,omitempty"`
	PhaseSumNs     [NumPhases]int64     `json:"phaseSumNs"`
	Phase          [NumPhases]*Quantile `json:"phase"` // ms
	PhaseTruncated uint64               `json:"phaseTruncated,omitempty"`
}

func newGroupMetrics(alpha float64) *GroupMetrics {
	g := &GroupMetrics{
		alpha:   alpha,
		PLT:     NewQuantile(alpha),
		PLTHist: NewHistogram(DefaultPLTBoundsMs),
		PLTCold: NewQuantile(alpha),
		PLTWarm: NewQuantile(alpha),
	}
	for i := range g.Phase {
		g.Phase[i] = NewQuantile(alpha)
	}
	return g
}

const nsPerMs = 1e6

// Fold accumulates one visit.
func (g *GroupMetrics) Fold(v VisitSample) {
	g.Pages++
	plt := float64(v.PLTNs) / nsPerMs
	g.PLT.Add(plt)
	g.PLTHist.Add(plt)
	g.PLTSumNs += v.PLTNs
	g.Bytes.Add(v.Bytes)
	g.Entries.Add(v.Entries)
	g.Failed.Add(v.Failed)
	g.Retries.Add(v.Retries)
	g.Reused.Add(v.Reused)
	g.Resumed.Add(v.Resumed)
	if v.CacheHits+v.CacheMisses > 0 {
		g.CacheHits.Add(v.CacheHits)
		g.CacheMisses.Add(v.CacheMisses)
		if v.Warm {
			g.WarmPages++
			g.PLTWarm.Add(plt)
		} else {
			g.ColdPages++
			g.PLTCold.Add(plt)
		}
	}
	if v.Phase == nil {
		return
	}
	g.PhasePages++
	for i, ns := range v.Phase.Ns {
		g.PhaseSumNs[i] += ns
		g.Phase[i].Add(float64(ns) / nsPerMs)
	}
	if v.Phase.Truncated {
		g.PhaseTruncated++
	}
}

// Merge folds o into g (associative and commutative; same α required).
func (g *GroupMetrics) Merge(o *GroupMetrics) {
	if o == nil {
		return
	}
	g.Pages += o.Pages
	g.PLT.Merge(o.PLT)
	g.PLTHist.Merge(o.PLTHist)
	g.PLTSumNs += o.PLTSumNs
	g.Bytes.Merge(o.Bytes)
	g.Entries.Merge(o.Entries)
	g.Failed.Merge(o.Failed)
	g.Retries.Merge(o.Retries)
	g.Reused.Merge(o.Reused)
	g.Resumed.Merge(o.Resumed)
	g.CacheHits.Merge(o.CacheHits)
	g.CacheMisses.Merge(o.CacheMisses)
	g.ColdPages += o.ColdPages
	g.WarmPages += o.WarmPages
	g.PLTCold.Merge(o.PLTCold)
	g.PLTWarm.Merge(o.PLTWarm)
	g.PhasePages += o.PhasePages
	for i := range g.PhaseSumNs {
		g.PhaseSumNs[i] += o.PhaseSumNs[i]
		g.Phase[i].Merge(o.Phase[i])
	}
	g.PhaseTruncated += o.PhaseTruncated
}

// Clone returns an independent deep copy.
func (g *GroupMetrics) Clone() *GroupMetrics {
	c := newGroupMetrics(g.alpha)
	c.Merge(g)
	return c
}

// MeanPLTMs returns the exact mean PLT in milliseconds (integer-sum
// derived, no sketch error).
func (g *GroupMetrics) MeanPLTMs() float64 {
	if g.Pages == 0 {
		return 0
	}
	return float64(g.PLTSumNs) / nsPerMs / float64(g.Pages)
}

// MedianPLTMs returns the sketch median PLT in milliseconds (relative
// error ≤ α).
func (g *GroupMetrics) MedianPLTMs() float64 { return g.PLT.Query(0.5) }

// MetricAccumulator is the per-shard streaming aggregate: GroupMetrics
// keyed by (mode, vantage). A shard folds each visit as it finishes;
// the campaign stitcher merges shard accumulators in shard-index order
// into one campaign-level accumulator.
type MetricAccumulator struct {
	alpha  float64
	groups map[Key]*GroupMetrics
}

// NewAccumulator returns an empty accumulator whose sketches carry
// relative-error bound alpha (outside (0,1) selects DefaultAlpha).
func NewAccumulator(alpha float64) *MetricAccumulator {
	if alpha <= 0 || alpha >= 1 {
		alpha = DefaultAlpha
	}
	return &MetricAccumulator{alpha: alpha, groups: make(map[Key]*GroupMetrics)}
}

// Alpha returns the accumulator's relative-error bound.
func (a *MetricAccumulator) Alpha() float64 { return a.alpha }

// Group returns k's metrics, creating them on first use.
func (a *MetricAccumulator) Group(k Key) *GroupMetrics {
	g := a.groups[k]
	if g == nil {
		g = newGroupMetrics(a.alpha)
		a.groups[k] = g
	}
	return g
}

// Lookup returns k's metrics, or nil when the group has never folded.
func (a *MetricAccumulator) Lookup(k Key) *GroupMetrics { return a.groups[k] }

// Keys returns the populated group keys sorted by (mode, vantage) — the
// canonical iteration order.
func (a *MetricAccumulator) Keys() []Key {
	keys := make([]Key, 0, len(a.groups))
	for k := range a.groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Mode != keys[j].Mode {
			return keys[i].Mode < keys[j].Mode
		}
		return keys[i].Vantage < keys[j].Vantage
	})
	return keys
}

// Merge folds o into a, group by group. Merging is associative and
// commutative, so any shard completion order yields the same state.
func (a *MetricAccumulator) Merge(o *MetricAccumulator) {
	if o == nil {
		return
	}
	for _, k := range o.Keys() {
		a.Group(k).Merge(o.groups[k])
	}
}

// ModeGroup returns the merge of every vantage's group under the given
// mode (vantages merged in sorted order), or nil when the mode never
// folded. The result is an independent copy.
func (a *MetricAccumulator) ModeGroup(mode string) *GroupMetrics {
	var out *GroupMetrics
	for _, k := range a.Keys() {
		if k.Mode != mode {
			continue
		}
		if out == nil {
			out = newGroupMetrics(a.alpha)
		}
		out.Merge(a.groups[k])
	}
	return out
}

// Pages returns the total folded page count across all groups.
func (a *MetricAccumulator) Pages() uint64 {
	var n uint64
	for _, g := range a.groups {
		n += g.Pages
	}
	return n
}
