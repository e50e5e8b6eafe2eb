package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/har"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

// The campaign-level golden byte-identity guarantee for the shared-
// topology path lives in TestCampaignGoldenDataset and
// TestImpairedCampaignGoldenDataset: RunCampaign now builds one Topology
// and shares it across Workers {1, 4}, and both pinned
// hashes predate the refactor. The tests here cover the sharing
// semantics directly: a shared topology must be observationally
// identical to a private one, and concurrent campaigns over one corpus
// must be race-free.

// visitAll loads every corpus page once through u and returns the
// marshaled logs.
func visitAll(t *testing.T, u *Universe, corpus *webgen.Corpus) []byte {
	t.Helper()
	b := u.NewBrowser(browser.Config{
		Mode:          browser.ModeH3,
		EnableZeroRTT: true,
		HandshakeCPU:  300 * time.Microsecond,
	})
	var logs []har.PageLog
	for i := range corpus.Pages {
		log, err := u.RunVisit(b, &corpus.Pages[i])
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, *log)
		b.ClearSessions()
	}
	out, err := json.Marshal(logs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSharedTopologyMatchesPrivate pins the lazy-instantiation
// invariant at the universe level: a universe handed the campaign's
// shared topology must produce byte-identical visit logs to one that
// builds its own, because every server rng stream is label-derived and
// the only ordered draws (origindelay) happen eagerly either way.
func TestSharedTopologyMatchesPrivate(t *testing.T) {
	corpus := webgen.Generate(webgen.Config{NumPages: 6, Seed: 11})
	topo := NewTopology(corpus)

	build := func(shared *Topology) *Universe {
		u, err := NewUniverse(UniverseConfig{
			Seed:     2022,
			Corpus:   corpus,
			Topology: shared,
			Vantage:  vantage.Points()[0],
		})
		if err != nil {
			t.Fatal(err)
		}
		return u
	}

	uShared := build(topo)
	defer uShared.Close()
	uPrivate := build(nil)
	defer uPrivate.Close()

	got := visitAll(t, uShared, corpus)
	want := visitAll(t, uPrivate, corpus)
	if !bytes.Equal(got, want) {
		t.Fatalf("shared-topology logs differ from private-topology logs (%d vs %d bytes)", len(got), len(want))
	}
}

// TestConcurrentCampaignsSharedCorpus runs two parallel campaigns over
// one corpus. Each campaign builds its own shared Topology and fans it
// out across its worker pool, so under -race this exercises concurrent
// reads of both the corpus maps and the topology tables. Both datasets
// must match an inline (one-worker) reference byte-for-byte.
func TestConcurrentCampaignsSharedCorpus(t *testing.T) {
	corpus := webgen.Generate(webgen.Config{NumPages: 8, Seed: 7})
	cfg := CampaignConfig{
		Seed:             2022,
		Corpus:           corpus,
		Vantages:         vantage.Points()[:1],
		ProbesPerVantage: 1,
		PagesPerShard:    4, // two shards per probe: topology shared across shards
	}

	seqCfg := cfg
	seqCfg.Workers = 1
	ref, err := RunCampaign(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	refSum := sha256.Sum256(harJSON(t, ref))

	var wg sync.WaitGroup
	sums := make([][32]byte, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cfg
			c.Workers = i + 2
			ds, err := RunCampaign(c)
			if err != nil {
				errs[i] = err
				return
			}
			b, err := json.Marshal(ds.Logs)
			if err != nil {
				errs[i] = err
				return
			}
			sums[i] = sha256.Sum256(b)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
		if sums[i] != refSum {
			t.Fatalf("campaign %d dataset differs from inline reference", i)
		}
	}
}
