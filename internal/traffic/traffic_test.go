package traffic

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"h3cdn/internal/cdn"
	"h3cdn/internal/har"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/sketch"
)

func validConfig() Config {
	return Config{Users: 100, ArrivalRate: 2, Duration: 10 * time.Second}
}

func TestConfigValidate(t *testing.T) {
	if err := validConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero users", func(c *Config) { c.Users = 0 }},
		{"negative users", func(c *Config) { c.Users = -5 }},
		{"zero rate", func(c *Config) { c.ArrivalRate = 0 }},
		{"negative rate", func(c *Config) { c.ArrivalRate = -1 }},
		{"NaN rate", func(c *Config) { c.ArrivalRate = math.NaN() }},
		{"Inf rate", func(c *Config) { c.ArrivalRate = math.Inf(1) }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"amplitude ≥ 1", func(c *Config) { c.DiurnalAmplitude = 1 }},
		{"negative amplitude", func(c *Config) { c.DiurnalAmplitude = -0.1 }},
		{"NaN amplitude", func(c *Config) { c.DiurnalAmplitude = math.NaN() }},
		{"negative period", func(c *Config) { c.DiurnalPeriod = -time.Hour }},
		{"negative epoch", func(c *Config) { c.EpochInterval = -time.Second }},
		{"sub-1 session visits", func(c *Config) { c.SessionVisits = 0.5 }},
		{"negative think", func(c *Config) { c.ThinkTime = -time.Second }},
		{"zipf ≤ 1", func(c *Config) { c.ZipfS = 1.0 }},
		{"NaN zipf", func(c *Config) { c.ZipfS = math.NaN() }},
		{"negative TTL", func(c *Config) { c.CacheTTL = -time.Second }},
		{"negative in-flight", func(c *Config) { c.MaxInFlight = -1 }},
		{"negative users/shard", func(c *Config) { c.UsersPerShard = -1 }},
	}
	for _, tc := range cases {
		c := validConfig()
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestConfigDefaultsAndEpochs(t *testing.T) {
	c := validConfig().WithDefaults()
	if c.EpochInterval != c.Duration || c.Epochs() != 1 {
		t.Fatalf("default epoching: interval=%v epochs=%d", c.EpochInterval, c.Epochs())
	}
	c.EpochInterval = 3 * time.Second
	if got := c.Epochs(); got != 4 { // ceil(10/3)
		t.Fatalf("epochs = %d, want 4", got)
	}
	if c.ZipfS != 1.2 || c.CacheTTL != 60*time.Second || c.MaxInFlight != 64 {
		t.Fatalf("defaults not filled: %+v", c)
	}
}

func TestArrivalsDeterministicAndBounded(t *testing.T) {
	c := validConfig().WithDefaults()
	src := seqrand.New(42)
	a1 := Arrivals(src, 0, 5, 100, c, 0, 10*time.Second)
	a2 := Arrivals(seqrand.New(42), 0, 5, 100, c, 0, 10*time.Second)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("same seed+epoch produced different arrivals")
	}
	if len(a1) == 0 {
		t.Fatal("no arrivals over 10s at 5/s")
	}
	// Mean count ≈ rate·horizon = 50; allow a generous Poisson band.
	if len(a1) < 20 || len(a1) > 100 {
		t.Fatalf("arrival count %d implausible for mean 50", len(a1))
	}
	var prev time.Duration
	for _, a := range a1 {
		if a.At < prev || a.At >= 10*time.Second {
			t.Fatalf("arrival %v out of order or range", a.At)
		}
		if a.User < 0 || a.User >= 100 {
			t.Fatalf("user %d out of range", a.User)
		}
		prev = a.At
	}
	// A different epoch draws a different realization.
	b := Arrivals(src, 1, 5, 100, c, 0, 10*time.Second)
	if reflect.DeepEqual(a1, b) {
		t.Fatal("epochs 0 and 1 produced identical arrivals")
	}
}

func TestArrivalsDiurnalModulation(t *testing.T) {
	c := validConfig()
	c.DiurnalAmplitude = 0.9
	c.DiurnalPeriod = 20 * time.Second
	c = c.WithDefaults()
	src := seqrand.New(7)
	// First half of the period sits above base rate, second half below.
	var up, down int
	for e := 0; e < 20; e++ {
		for _, a := range Arrivals(src, e, 10, 50, c, 0, 20*time.Second) {
			if a.At < 10*time.Second {
				up++
			} else {
				down++
			}
		}
	}
	if up <= down {
		t.Fatalf("diurnal peak half has %d arrivals vs trough half %d", up, down)
	}
	// The trough half still sees traffic (A < 1 keeps the rate positive).
	if down == 0 {
		t.Fatal("trough half starved entirely")
	}
}

func TestSessionModel(t *testing.T) {
	c := validConfig()
	c.SessionVisits = 4
	c.ThinkTime = 2 * time.Second
	c = c.WithDefaults()
	src := seqrand.New(11)
	var visits, sessions int
	var think time.Duration
	var thinks int
	pageSeen := make(map[int]int)
	for i := 0; i < 2000; i++ {
		s := NewSession(src.Stream("s", seqrand.Label("i", i)), 500, c)
		sessions++
		visits += s.VisitsLeft
		if s.VisitsLeft < 1 || s.VisitsLeft > maxSessionVisits {
			t.Fatalf("session length %d out of bounds", s.VisitsLeft)
		}
		pageSeen[s.NextPage()]++
		th := s.Think()
		if th < 0 {
			t.Fatalf("negative think %v", th)
		}
		think += th
		thinks++
	}
	if mean := float64(visits) / float64(sessions); mean < 3.2 || mean > 4.8 {
		t.Fatalf("mean session length %v, want ≈ 4", mean)
	}
	if mean := think / time.Duration(thinks); mean < time.Second || mean > 3*time.Second {
		t.Fatalf("mean think %v, want ≈ 2s", mean)
	}
	// Zipf head: page 0 must dominate any deep-tail page.
	if pageSeen[0] < 100 {
		t.Fatalf("head page drawn %d times of 2000, want Zipf head", pageSeen[0])
	}
	var tail int
	for p, n := range pageSeen {
		if p >= 250 {
			tail += n
		}
	}
	if tail >= pageSeen[0] {
		t.Fatalf("deep tail (%d) outdraws head page (%d)", tail, pageSeen[0])
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard0.ckpt.json")

	if cp, err := Load(path); err != nil || cp != nil {
		t.Fatalf("missing checkpoint: cp=%v err=%v, want nil/nil", cp, err)
	}

	acc := sketch.NewAccumulator(sketch.DefaultAlpha)
	acc.Group(sketch.Key{Mode: "h3", Vantage: "utah"}).Fold(sketch.VisitSample{
		PLTNs: 7e8, Entries: 12, CacheHits: 9, CacheMisses: 3, Warm: true,
	})
	cp := &Checkpoint{
		Seed:   99,
		Lo:     40,
		Hi:     60,
		Digest: "d1",
		Epoch:  3,
		Users:  []UserMemory{{User: 4, AltSvc: []string{"a.cdn", "b.cdn"}}},
		Edges: []EdgeCache{{Provider: "Cloudflare", Entries: []cdn.CacheEntry{
			{Host: "a.cdn", Path: "/x", ExpiresAt: 95 * time.Second},
		}}},
		Report: Report{
			Counters: Counters{SessionsStarted: 5, VisitsGenerated: 12, VisitsCompleted: 11, VisitsShed: 1},
			Epochs:   []EpochStat{{Epoch: 0, Visits: 11, CacheHits: 20, CacheMisses: 8}},
		},
		Metrics: acc,
		Logs:    []har.PageLog{{Site: "s.sim", Protocol: "h3", PLT: 700 * time.Millisecond}},
		State:   json.RawMessage(`{"seen":7}`),
	}
	if err := Save(path, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch != 3 || back.Seed != 99 || back.Lo != 40 || back.Hi != 60 || back.Digest != "d1" {
		t.Fatalf("shard identity lost: %+v", back)
	}
	if string(back.State) != `{"seen":7}` {
		t.Fatalf("shard state lost: %s", back.State)
	}
	if !reflect.DeepEqual(back.Users, cp.Users) || !reflect.DeepEqual(back.Edges, cp.Edges) {
		t.Fatal("user/edge state lost")
	}
	if !reflect.DeepEqual(back.Report, cp.Report) {
		t.Fatalf("report lost: %+v", back.Report)
	}
	if len(back.Logs) != 1 || back.Logs[0].Site != "s.sim" {
		t.Fatalf("logs lost: %+v", back.Logs)
	}
	g := back.Metrics.Lookup(sketch.Key{Mode: "h3", Vantage: "utah"})
	if g == nil || g.Pages != 1 || g.WarmPages != 1 || g.CacheHits.Value() != 9 {
		t.Fatalf("metrics lost: %+v", g)
	}

	// Version mismatch refuses to resume.
	cp.Version = 0
	blob, _ := os.ReadFile(path)
	bad := []byte(string(blob[:len(blob)-1]) + "}") // keep valid JSON below
	_ = bad
	if err := os.WriteFile(path, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("version mismatch accepted")
	}
}

func TestReportMerge(t *testing.T) {
	a := &Report{
		Counters: Counters{VisitsGenerated: 10, VisitsCompleted: 9, VisitsShed: 1, ConnsOpened: 4, ResumedConns: 1},
		Epochs:   []EpochStat{{Epoch: 0, Visits: 5, CacheHits: 3, CacheMisses: 2}},
	}
	b := &Report{
		Counters: Counters{VisitsGenerated: 6, VisitsCompleted: 6, ConnsOpened: 4, ResumedConns: 3},
		Epochs: []EpochStat{
			{Epoch: 0, Visits: 2, CacheHits: 1, CacheMisses: 1},
			{Epoch: 1, Visits: 4, CacheHits: 4},
		},
	}
	a.Merge(b)
	if a.Counters.VisitsGenerated != 16 || a.Counters.VisitsCompleted != 15 || a.Counters.VisitsShed != 1 {
		t.Fatalf("counters merged wrong: %+v", a.Counters)
	}
	if len(a.Epochs) != 2 || a.Epochs[0].Visits != 7 || a.Epochs[1].CacheHits != 4 {
		t.Fatalf("epochs merged wrong: %+v", a.Epochs)
	}
	if got := a.Epochs[0].HitRate(); math.Abs(got-4.0/7.0) > 1e-12 {
		t.Fatalf("hit rate %v", got)
	}
	if got := a.ResumptionFraction(); got != 0.5 {
		t.Fatalf("resumption fraction %v, want 0.5", got)
	}
	// Invariant: generated = completed + shed.
	if a.Counters.VisitsGenerated != a.Counters.VisitsCompleted+a.Counters.VisitsShed {
		t.Fatal("generated ≠ completed + shed")
	}
}
