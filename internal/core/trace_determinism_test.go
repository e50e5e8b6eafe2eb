package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"h3cdn/internal/simnet"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

// goldenTraceSHA256 pins the exact bytes of every qlog trace file a
// trace-scale campaign emits (seed 2022, 12 pages, three vantages, one
// probe each). The hash covers file names and contents in sorted order,
// so it fails if any shard's event sequence — emission order, timestamps,
// serialized fields — drifts, or if sharding stops being byte-identical
// across worker counts.
const goldenTraceSHA256 = "8afc6e1a6af552833365dedc939a50ef611479d5ad2888c6947e8523997c5230"

// hashQlogDir hashes every .qlog file under dir (name + contents, sorted
// by name) into one digest.
func hashQlogDir(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.qlog"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no qlog files written")
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(filepath.Base(name)))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCampaignGoldenTraces runs the pinned trace campaign at one (inline)
// and four workers, and requires every produced qlog file to be
// byte-identical (and equal to the pinned golden) each time. It also
// checks that every line of every file is valid JSON and that no visit
// overflowed the event ring.
func TestCampaignGoldenTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-scale campaign; skipped with -short")
	}
	variants := []struct {
		name string
		mut  func(*CampaignConfig)
	}{
		{"Workers1", func(c *CampaignConfig) { c.Workers = 1 }},
		{"Workers4", func(c *CampaignConfig) { c.Workers = 4 }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := CampaignConfig{
				Seed:             2022,
				CorpusConfig:     webgen.Config{NumPages: 12},
				Vantages:         vantage.Points(),
				ProbesPerVantage: 1,
				QlogDir:          dir,
				TracePhases:      true,
			}
			v.mut(&cfg)
			ds, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := hashQlogDir(t, dir); got != goldenTraceSHA256 {
				t.Fatalf("trace hash %s, want golden %s", got, goldenTraceSHA256)
			}
			checkQlogWellFormed(t, dir)

			// The phase attributions ride the same trace, so they must
			// partition each visit's PLT exactly, for every mode.
			for mode, log := range ds.Logs {
				phases := ds.Phases[mode]
				if len(phases) != len(log.Pages) {
					t.Fatalf("mode %s: %d phase records for %d pages", mode, len(phases), len(log.Pages))
				}
				for i := range phases {
					if total := phases[i].Total(); total != log.Pages[i].PLT {
						t.Fatalf("mode %s page %d: phase total %v != PLT %v",
							mode, i, total, log.Pages[i].PLT)
					}
				}
			}
		})
	}
}

// checkQlogWellFormed parses every line of every qlog file as JSON and
// asserts no visit dropped events to ring overflow.
func checkQlogWellFormed(t *testing.T, dir string) {
	t.Helper()
	names, _ := filepath.Glob(filepath.Join(dir, "*.qlog"))
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, 1<<20)
		line := 0
		for sc.Scan() {
			line++
			var rec map[string]any
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("%s:%d: invalid JSON: %v", filepath.Base(name), line, err)
			}
			if rec["name"] == "sim:visit_start" {
				data := rec["data"].(map[string]any)
				if dropped, _ := data["dropped_events"].(float64); dropped != 0 {
					t.Fatalf("%s:%d: visit dropped %v events (ring overflow)",
						filepath.Base(name), line, dropped)
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPhaseBucketsMatchHARTotals is the cross-layer consistency check:
// on an impaired campaign (bursty loss + jitter), each visit's phase
// buckets — attributed purely from observed trace events — must sum to
// the HAR-reported page load time for both H2 and H3, and the aggregate
// must show every major phase actually receiving time.
func TestPhaseBucketsMatchHARTotals(t *testing.T) {
	if testing.Short() {
		t.Skip("impaired trace campaign; skipped with -short")
	}
	ge := simnet.GilbertElliott(0.01, 4)
	ge.JitterMax = 2 * time.Millisecond
	cfg := CampaignConfig{
		Seed:             2022,
		CorpusConfig:     webgen.Config{NumPages: 16},
		Vantages:         vantage.Points()[:1],
		ProbesPerVantage: 1,
		Impairment:       &ge,
		TracePhases:      true,
	}
	ds, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for mode, log := range ds.Logs {
		phases := ds.Phases[mode]
		if len(phases) != len(log.Pages) {
			t.Fatalf("mode %s: %d phase records for %d pages", mode, len(phases), len(log.Pages))
		}
		var agg, sum time.Duration
		for i := range phases {
			total := phases[i].Total()
			plt := log.Pages[i].PLT
			if diff := total - plt; diff < -time.Microsecond || diff > time.Microsecond {
				t.Fatalf("mode %s page %d (%s): phase total %v != PLT %v",
					mode, i, log.Pages[i].Site, total, plt)
			}
			agg += total
			sum += phases[i].Connect + phases[i].Handshake + phases[i].Transfer
		}
		if agg == 0 {
			t.Fatalf("mode %s: zero total attributed time", mode)
		}
		if sum == 0 {
			t.Fatalf("mode %s: connect/handshake/transfer buckets all empty", mode)
		}
		for i := range phases {
			if phases[i].Truncated {
				t.Fatalf("mode %s page %d: Truncated with the default ring — overflow at this scale is a regression", mode, i)
			}
		}
	}
}

// TestPhaseFallbackOnRingOverflow pins the degraded path: with a ring
// far too small for a visit's event volume, AttributeVisit sees only a
// suffix of the trace. The campaign must detect the overflow, swap in
// HAR-derived buckets, and mark the breakdown Truncated — the buckets
// still partition PLT exactly, so downstream aggregation keeps working.
func TestPhaseFallbackOnRingOverflow(t *testing.T) {
	cfg := CampaignConfig{
		Seed:             2022,
		CorpusConfig:     webgen.Config{NumPages: 8},
		Vantages:         vantage.Points()[:1],
		ProbesPerVantage: 1,
		TracePhases:      true,
		TraceRing:        32, // a measured visit emits orders of magnitude more
		Workers:          1,
	}
	ds, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for mode, log := range ds.Logs {
		phases := ds.Phases[mode]
		if len(phases) != len(log.Pages) {
			t.Fatalf("mode %s: %d phase records for %d pages", mode, len(phases), len(log.Pages))
		}
		var buckets time.Duration
		for i := range phases {
			if !phases[i].Truncated {
				t.Fatalf("mode %s page %d: ring of 32 did not overflow — fallback never engaged", mode, i)
			}
			total := phases[i].Total()
			plt := log.Pages[i].PLT
			if diff := total - plt; diff < -time.Microsecond || diff > time.Microsecond {
				t.Fatalf("mode %s page %d (%s): fallback phase total %v != PLT %v",
					mode, i, log.Pages[i].Site, total, plt)
			}
			buckets += phases[i].Connect + phases[i].Handshake + phases[i].Transfer
		}
		if buckets == 0 {
			t.Fatalf("mode %s: HAR fallback produced empty connect/handshake/transfer buckets", mode)
		}
	}
}
