package core

import (
	"h3cdn/internal/har"
	"h3cdn/internal/sketch"
	"h3cdn/internal/trace"
)

// visitSample reduces one finished visit to its streaming-aggregation
// fold unit. pb may be nil (untraced campaigns).
func visitSample(log *har.PageLog, pb *trace.PhaseBreakdown) sketch.VisitSample {
	v := sketch.VisitSample{
		PLTNs:   int64(log.PLT),
		Entries: int64(len(log.Entries)),
		Reused:  int64(log.ReusedConns),
		Resumed: int64(log.ResumedConns),
	}
	for i := range log.Entries {
		e := &log.Entries[i]
		v.Retries += int64(e.Retries)
		if e.Failed {
			v.Failed++
			continue
		}
		v.Bytes += int64(e.BodySize)
	}
	if pb != nil {
		v.Phase = phaseSample(pb)
	}
	return v
}

// trafficVisitSample is visitSample plus the edge-cache warmth split
// population campaigns feed the cold/warm PLT sketches with.
func trafficVisitSample(log *har.PageLog, pb *trace.PhaseBreakdown) sketch.VisitSample {
	v := visitSample(log, pb)
	v.CacheHits, v.CacheMisses, v.Warm = cacheWarmth(log)
	return v
}

// cacheWarmth reads the visit's edge-cache interaction off its response
// headers: HIT/MISS counts across entries, and whether the visit ran
// fully warm — at least one edge hit and not a single origin fetch, so
// its PLT never paid a MissPenalty. Entries without an x-cache header
// (origin-served resources) count neither way.
func cacheWarmth(log *har.PageLog) (hits, misses int64, warm bool) {
	for i := range log.Entries {
		switch log.Entries[i].Header["x-cache"] {
		case "HIT":
			hits++
		case "MISS":
			misses++
		}
	}
	return hits, misses, hits > 0 && misses == 0
}

// phaseSample converts a trace phase breakdown to the sketch layer's
// slot array (slot order matches sketch.PhaseNames).
func phaseSample(pb *trace.PhaseBreakdown) *sketch.PhaseSample {
	return &sketch.PhaseSample{
		Ns: [sketch.NumPhases]int64{
			int64(pb.Resolve),
			int64(pb.Connect),
			int64(pb.Handshake),
			int64(pb.Stall),
			int64(pb.Transfer),
			int64(pb.Other),
		},
		Truncated: pb.Truncated,
	}
}
