package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func series(base, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + step*float64(i%5)
	}
	return out
}

func TestJudge(t *testing.T) {
	higher := specMetric{Name: "fetches_per_s", Better: "higher", Bound: 0.1}
	lower := specMetric{Name: "cpu_us_per_fetch", Better: "lower", Bound: 0.1}
	layer := specMetric{Name: "simnet.dispatch_ns", Better: "lower"}
	parent := series(100, 1, 10) // 100..104, spread ~3%
	for _, tc := range []struct {
		name        string
		m           specMetric
		parent, chg []float64
		want        string
	}{
		{"clear gain", higher, parent, series(120, 1, 10), "improved"},
		{"same", higher, parent, series(100, 1, 10), "within bound"},
		{"small loss", higher, parent, series(95, 1, 10), "within bound"},
		{"large loss", higher, parent, series(80, 1, 10), "worse"},
		{"lower is better gain", lower, parent, series(80, 1, 10), "improved"},
		{"lower is better loss", lower, parent, series(120, 1, 10), "worse"},
		{"too few pairs", higher, parent[:9], series(120, 1, 9), "unresolved"},
		{"noisy parent", higher, series(100, 20, 10), series(101, 20, 10), "unresolved"},
		{"noisy parent, change beats every run", higher, series(100, 20, 10), series(200, 1, 10), "improved"},
		{"layer gain", layer, parent, series(80, 1, 10), "improved"},
		{"layer loss", layer, parent, series(120, 1, 10), "worse"},
		{"layer unchanged", layer, parent, series(100, 1, 10), "unresolved"},
	} {
		if got := judge(tc.m, tc.parent, tc.chg).outcome; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	// Eight wins in ten pairs is not a gain, however large.
	chg := series(150, 1, 10)
	chg[0], chg[1] = 50, 50
	if got := judge(higher, parent, chg).outcome; got == "improved" {
		t.Errorf("8/10 wins judged %s", got)
	}
}

func TestReadRunsGroupsByWorkload(t *testing.T) {
	in := strings.Join([]string{
		`{"workload":"census","seed":1,"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}`,
		`{"workload":"census","seed":2,"correct":false,"attempted":10,"failed":2,"metrics":{"setup_s":{"value":0.7,"unit":"s"}}}`,
		``,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":0.1,"unit":"s"}}}`,
	}, "\n")
	sets, err := readRuns(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	c := sets["census"]
	if c == nil || c.runs != 2 || c.incorrect != 1 || c.failed != 2 || len(c.metrics["setup_s"]) != 2 {
		t.Fatalf("census set %+v", c)
	}
	if u := sets[""]; u == nil || u.runs != 1 {
		t.Fatalf("untagged set %+v", u)
	}
	if _, err := readRuns(strings.NewReader("{not json")); err == nil {
		t.Fatal("accepted a malformed line")
	}
}

func TestReportMarksUntrustedRuns(t *testing.T) {
	sp := spec{EndToEnd: []specMetric{{Name: "x", Unit: "s", Better: "lower", Bound: 0.1}}}
	p := &runSet{metrics: map[string][]float64{"x": series(100, 1, 10)}, runs: 10}
	c := &runSet{metrics: map[string][]float64{"x": series(50, 1, 10)}, runs: 10, incorrect: 1}
	var out bytes.Buffer
	report(&out, "census", sp, p, c)
	if !strings.Contains(out.String(), "unresolved") || strings.Contains(out.String(), "improved") {
		t.Fatalf("a run that failed its output check must leave the metric unresolved:\n%s", out.String())
	}
}

func TestCheckDeclared(t *testing.T) {
	sp := `{"end_to_end":[{"name":"a","unit":"s","better":"lower","bound":0.1}],"per_layer":[{"name":"b","unit":"ns","better":"lower"}]}`
	path := t.TempDir() + "/BENCHMARK.json"
	if err := os.WriteFile(path, []byte(sp), 0o644); err != nil {
		t.Fatal(err)
	}
	r := newResult()
	r.set("a", "s", 1)
	if err := checkDeclared(r, false, path); err != nil {
		t.Fatal(err)
	}
	if err := checkDeclared(r, true, path); err == nil {
		t.Error("a traced result without the per-layer metrics passed")
	}
	r.set("extra", "s", 1)
	if err := checkDeclared(r, false, path); err == nil {
		t.Error("an undeclared metric passed")
	}
	bad := newResult()
	bad.set("a", "ms", 1)
	if err := checkDeclared(bad, false, path); err == nil {
		t.Error("a unit mismatch passed")
	}
	if err := checkDeclared(bad, false, t.TempDir()+"/none.json"); err != nil {
		t.Errorf("missing declaration file: %v", err)
	}
}
