package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"h3cdn/internal/har"
)

func TestValidateImpairFlags(t *testing.T) {
	type args struct {
		burstLoss    float64
		jitter       time.Duration
		reorder      float64
		reorderDelay time.Duration
		traceScale   float64
	}
	ok := args{traceScale: 1}
	cases := []struct {
		name    string
		mut     func(*args)
		wantErr string // substring of the error, "" = valid
	}{
		{"defaults", func(a *args) {}, ""},
		{"all-knobs-on", func(a *args) {
			a.burstLoss, a.jitter, a.reorder, a.reorderDelay = 0.02, 2*time.Millisecond, 0.1, 5*time.Millisecond
		}, ""},
		{"negative-burst-loss", func(a *args) { a.burstLoss = -0.01 }, "-burst-loss"},
		{"nan-burst-loss", func(a *args) { a.burstLoss = math.NaN() }, "-burst-loss"},
		{"negative-jitter", func(a *args) { a.jitter = -time.Millisecond }, "-jitter"},
		{"negative-reorder", func(a *args) { a.reorder = -0.5 }, "-reorder"},
		{"nan-reorder", func(a *args) { a.reorder = math.NaN() }, "-reorder"},
		{"negative-reorder-delay", func(a *args) { a.reorderDelay = -time.Second }, "-reorder-delay"},
		{"zero-trace-scale", func(a *args) { a.traceScale = 0 }, "-trace-scale"},
		{"negative-trace-scale", func(a *args) { a.traceScale = -2 }, "-trace-scale"},
		{"nan-trace-scale", func(a *args) { a.traceScale = math.NaN() }, "-trace-scale"},
		{"inf-trace-scale", func(a *args) { a.traceScale = math.Inf(1) }, "-trace-scale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := ok
			tc.mut(&a)
			err := validateImpairFlags(a.burstLoss, a.jitter, a.reorder, a.reorderDelay, a.traceScale)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error naming %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending flag %q", err, tc.wantErr)
			}
		})
	}
}

// TestBuildTrafficConfig covers the -traffic-* usage validation: bad
// knob values and incompatible flag combinations are rejected before
// any simulation work (exit 2), same contract as the impair-flag table
// above. Mutate-one-knob cases start from a valid baseline.
func TestBuildTrafficConfig(t *testing.T) {
	type args struct {
		tf          trafficFlags
		consecutive bool
		qlogDir     string
	}
	ok := args{
		tf: trafficFlags{
			enabled:  true,
			users:    256,
			rate:     4,
			duration: 2 * time.Minute,
		},
	}
	cases := []struct {
		name    string
		mut     func(*args)
		wantErr string // substring of the error, "" = valid
	}{
		{"defaults", func(a *args) {}, ""},
		{"all-knobs-on", func(a *args) {
			a.tf.usersPerShard = 32
			a.tf.diurnal, a.tf.diurnalPeriod = 0.5, time.Hour
			a.tf.epoch = 30 * time.Second
			a.tf.sessionVisits, a.tf.think = 4, 2*time.Second
			a.tf.zipf, a.tf.ttl, a.tf.maxInFlight = 1.3, 45*time.Second, 128
			a.tf.checkpoint = "ckpt"
		}, ""},
		{"zero-users", func(a *args) { a.tf.users = 0 }, "users"},
		{"negative-users", func(a *args) { a.tf.users = -5 }, "users"},
		{"negative-users-per-shard", func(a *args) { a.tf.usersPerShard = -1 }, "users per shard"},
		{"zero-rate", func(a *args) { a.tf.rate = 0 }, "arrival rate"},
		{"negative-rate", func(a *args) { a.tf.rate = -1 }, "arrival rate"},
		{"nan-rate", func(a *args) { a.tf.rate = math.NaN() }, "arrival rate"},
		{"inf-rate", func(a *args) { a.tf.rate = math.Inf(1) }, "arrival rate"},
		{"zero-duration", func(a *args) { a.tf.duration = 0 }, "duration"},
		{"diurnal-too-big", func(a *args) { a.tf.diurnal = 1 }, "amplitude"},
		{"nan-diurnal", func(a *args) { a.tf.diurnal = math.NaN() }, "amplitude"},
		{"negative-diurnal-period", func(a *args) { a.tf.diurnalPeriod = -time.Hour }, "period"},
		{"negative-epoch", func(a *args) { a.tf.epoch = -time.Second }, "epoch"},
		{"fractional-session-visits", func(a *args) { a.tf.sessionVisits = 0.5 }, "session visits"},
		{"negative-think", func(a *args) { a.tf.think = -time.Second }, "think"},
		{"zipf-at-one", func(a *args) { a.tf.zipf = 1 }, "zipf"},
		{"nan-zipf", func(a *args) { a.tf.zipf = math.NaN() }, "zipf"},
		{"negative-ttl", func(a *args) { a.tf.ttl = -time.Second }, "TTL"},
		{"negative-max-inflight", func(a *args) { a.tf.maxInFlight = -1 }, "in-flight"},
		{"negative-halt-epochs", func(a *args) { a.tf.haltEpochs = -1 }, "-traffic-halt-epochs"},
		{"with-consecutive", func(a *args) { a.consecutive = true }, "-consecutive"},
		{"with-qlog", func(a *args) { a.qlogDir = "qlogs" }, "-qlog"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := ok
			tc.mut(&a)
			cfg, err := buildTrafficConfig(a.tf, a.consecutive, a.qlogDir)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if cfg == nil {
					t.Fatal("valid -traffic flags: want a config, got nil")
				}
				return
			}
			if err == nil {
				t.Fatalf("want error naming %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending knob %q", err, tc.wantErr)
			}
		})
	}

	// -traffic off: every other knob is ignored, no config, no error.
	off := ok
	off.tf.enabled = false
	off.tf.users = -1
	if cfg, err := buildTrafficConfig(off.tf, off.consecutive, off.qlogDir); cfg != nil || err != nil {
		t.Fatalf("disabled traffic: got (%v, %v), want (nil, nil)", cfg, err)
	}
}

func TestBuildLinkTrace(t *testing.T) {
	if tl, err := buildLinkTrace("", 1); tl != nil || err != nil {
		t.Fatalf("empty spec: %v, %v", tl, err)
	}
	tl, err := buildLinkTrace("lte", 1)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Name() != "synthetic:lte" {
		t.Fatalf("name = %q", tl.Name())
	}
	half, err := buildLinkTrace("lte", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := half.MeanBps(), tl.MeanBps()/2; math.Abs(got-want) > 1 {
		t.Fatalf("scaled mean %v, want %v", got, want)
	}

	// Mahimahi file path.
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.trace")
	if err := os.WriteFile(path, []byte("0\n10\n20\n30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ftl, err := buildLinkTrace(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ftl.Name() != "cell.trace" || ftl.MeanBps() <= 0 {
		t.Fatalf("file trace: name %q mean %v", ftl.Name(), ftl.MeanBps())
	}

	if _, err := buildLinkTrace(filepath.Join(dir, "missing.trace"), 1); err == nil {
		t.Fatal("missing file: want error")
	}
	bad := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(bad, []byte("not-a-timestamp\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := buildLinkTrace(bad, 1); err == nil {
		t.Fatal("malformed file: want parse error")
	}
}

// TestHARRetentionFlag covers the -har-retention values main validates
// via har.ParseRetention before any simulation work; malformed values
// are usage errors (exit 2), same as the impair-flag table above.
func TestHARRetentionFlag(t *testing.T) {
	cases := []struct {
		name  string
		value string
		want  string // String() round-trip of the parsed policy, "" = error
	}{
		{"all", "all", "all"},
		{"none", "none", "none"},
		{"sample", "sample:64", "sample:64"},
		{"sample-one", "sample:1", "sample:1"},
		{"sample-zero", "sample:0", ""},
		{"sample-negative", "sample:-1", ""},
		{"sample-garbage", "sample:lots", ""},
		{"unknown", "keep", ""},
		{"empty", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ret, err := har.ParseRetention(tc.value)
			if tc.want == "" {
				if err == nil {
					t.Fatalf("-har-retention %q: want usage error, got %v", tc.value, ret)
				}
				return
			}
			if err != nil {
				t.Fatalf("-har-retention %q: %v", tc.value, err)
			}
			if got := ret.String(); got != tc.want {
				t.Fatalf("-har-retention %q parsed to %q, want %q", tc.value, got, tc.want)
			}
		})
	}
}
