package sketch

import (
	"encoding/json"
	"fmt"
	"math"
)

// JSON round-trips for every sketch type, so a traffic shard can
// checkpoint its streaming aggregates mid-campaign and resume them
// byte-exactly. Marshaling is deterministic: map-backed state is
// emitted as sorted parallel arrays, and the empty-sketch ±Inf min/max
// sentinels (unrepresentable in JSON) are omitted and reconstructed on
// decode. Unmarshal rebuilds every derived field (γ, ln γ, bucket
// budget) from α, so a decoded sketch folds and merges exactly like
// the original.

type quantileJSON struct {
	Alpha  float64  `json:"alpha"`
	Keys   []int32  `json:"keys,omitempty"`
	Counts []uint64 `json:"counts,omitempty"`
	Zeros  uint64   `json:"zeros,omitempty"`
	Count  uint64   `json:"count"`
	Min    float64  `json:"min,omitempty"`
	Max    float64  `json:"max,omitempty"`
}

// MarshalJSON encodes the sketch with its buckets in ascending key
// order (deterministic bytes for identical state).
func (q *Quantile) MarshalJSON() ([]byte, error) {
	j := quantileJSON{Alpha: q.alpha, Zeros: q.zeros, Count: q.count}
	if len(q.counts) > 0 {
		j.Keys = q.sortedKeys()
		j.Counts = make([]uint64, len(j.Keys))
		for i, k := range j.Keys {
			j.Counts[i] = q.counts[k]
		}
	}
	if q.count > 0 {
		j.Min = q.min
		j.Max = q.max
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes into q, replacing its state entirely.
func (q *Quantile) UnmarshalJSON(data []byte) error {
	var j quantileJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if len(j.Keys) != len(j.Counts) {
		return fmt.Errorf("sketch: quantile keys/counts length mismatch (%d vs %d)", len(j.Keys), len(j.Counts))
	}
	*q = *NewQuantile(j.Alpha)
	q.zeros = j.Zeros
	q.count = j.Count
	if j.Count > 0 {
		q.min = j.Min
		q.max = j.Max
	}
	for i, k := range j.Keys {
		q.counts[k] = j.Counts[i]
	}
	return nil
}

type histogramJSON struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
}

// MarshalJSON encodes the histogram's bounds and counts.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{Bounds: h.bounds, Counts: h.counts, Count: h.count})
}

// UnmarshalJSON decodes into h, replacing its state entirely.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var j histogramJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if len(j.Counts) != len(j.Bounds)+1 {
		return fmt.Errorf("sketch: histogram counts length %d, want %d", len(j.Counts), len(j.Bounds)+1)
	}
	*h = *NewHistogram(j.Bounds)
	copy(h.counts, j.Counts)
	h.count = j.Count
	return nil
}

// groupMetricsJSON is GroupMetrics without its methods, so encoding its
// tagged fields does not recurse into MarshalJSON.
type groupMetricsJSON GroupMetrics

// groupJSON is one group's wire form: the unexported α first, then the
// exported fields.
type groupJSON struct {
	Alpha float64 `json:"alpha"`
	*groupMetricsJSON
}

// MarshalJSON encodes one group's aggregates.
func (g *GroupMetrics) MarshalJSON() ([]byte, error) {
	return json.Marshal(groupJSON{g.alpha, (*groupMetricsJSON)(g)})
}

// UnmarshalJSON decodes into g, replacing its state entirely. Sketches
// absent from the encoding (omitempty nils) come back empty, not nil,
// so the decoded group merges and folds like any other.
func (g *GroupMetrics) UnmarshalJSON(data []byte) error {
	*g = GroupMetrics{}
	j := groupJSON{groupMetricsJSON: (*groupMetricsJSON)(g)}
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Alpha <= 0 || j.Alpha >= 1 || math.IsNaN(j.Alpha) {
		return fmt.Errorf("sketch: group alpha %v out of range", j.Alpha)
	}
	g.alpha = j.Alpha
	if g.PLT == nil {
		g.PLT = NewQuantile(j.Alpha)
	}
	if g.PLTHist == nil {
		g.PLTHist = NewHistogram(DefaultPLTBoundsMs)
	}
	if g.PLTCold == nil {
		g.PLTCold = NewQuantile(j.Alpha)
	}
	if g.PLTWarm == nil {
		g.PLTWarm = NewQuantile(j.Alpha)
	}
	for i := range g.Phase {
		if g.Phase[i] == nil {
			g.Phase[i] = NewQuantile(j.Alpha)
		}
	}
	return nil
}

// accumulatorJSON lists groups in canonical key order.
type accumulatorJSON struct {
	Alpha  float64         `json:"alpha"`
	Groups []groupKeyedRow `json:"groups"`
}

type groupKeyedRow struct {
	Mode    string        `json:"mode"`
	Vantage string        `json:"vantage"`
	Metrics *GroupMetrics `json:"metrics"`
}

// MarshalJSON encodes the accumulator with groups sorted by
// (mode, vantage) — identical state yields identical bytes.
func (a *MetricAccumulator) MarshalJSON() ([]byte, error) {
	j := accumulatorJSON{Alpha: a.alpha, Groups: make([]groupKeyedRow, 0, len(a.groups))}
	for _, k := range a.Keys() {
		j.Groups = append(j.Groups, groupKeyedRow{Mode: k.Mode, Vantage: k.Vantage, Metrics: a.groups[k]})
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes into a, replacing its state entirely.
func (a *MetricAccumulator) UnmarshalJSON(data []byte) error {
	var j accumulatorJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*a = *NewAccumulator(j.Alpha)
	for _, row := range j.Groups {
		if row.Metrics == nil {
			continue
		}
		a.groups[Key{Mode: row.Mode, Vantage: row.Vantage}] = row.Metrics
	}
	return nil
}
