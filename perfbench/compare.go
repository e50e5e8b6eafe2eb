package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"slices"
	"sort"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only; 0 for per-layer metrics
}

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// minPairs is the fewest parent/change pairs a verdict other than
// unresolved may rest on.
const minPairs = 10

// verdict is the comparison of one metric on one workload.
type verdict struct {
	pairs, wins int
	parent      [3]float64 // Q1, median, Q3
	change      [3]float64
	outcome     string // improved, within bound, worse, unresolved
}

// judge applies the A/B rule to paired runs: parent[i] and change[i]
// ran back to back. The change improved when it wins at least 9 in 10
// pairs (ties count for neither) and the medians differ, in its favour,
// by more than the parent's interquartile spread. With a bound, it is
// worse when its median is worse than the parent's by more than bound,
// and unresolved when the parent's own spread exceeds the bound — unless
// every change run beats every parent run. Without a bound (per-layer
// metrics) the mirrored rule marks it worse; anything else is
// unresolved.
func judge(m specMetric, parent, change []float64) verdict {
	n := min(len(parent), len(change))
	parent, change = parent[:n], change[:n]
	v := verdict{pairs: n, outcome: "unresolved"}
	if n == 0 {
		return v
	}
	v.parent[0], v.parent[1], v.parent[2] = quartiles(parent)
	v.change[0], v.change[1], v.change[2] = quartiles(change)
	// gain > 0 means the change reads better than the parent.
	gain := func(p, c float64) float64 {
		if m.Better == "higher" {
			return c - p
		}
		return p - c
	}
	losses := 0
	for i := range parent {
		switch g := gain(parent[i], change[i]); {
		case g > 0:
			v.wins++
		case g < 0:
			losses++
		}
	}
	if n < minPairs {
		return v
	}
	iqr := v.parent[2] - v.parent[0]
	medGain := gain(v.parent[1], v.change[1])
	switch {
	case 10*v.wins >= 9*n && medGain > iqr:
		v.outcome = "improved"
		return v
	case m.Bound == 0:
		if 10*losses >= 9*n && -medGain > iqr {
			v.outcome = "worse"
		}
		return v
	}
	base := math.Abs(v.parent[1])
	bestParent, worstChange := slices.Max(parent), slices.Min(change)
	if m.Better != "higher" {
		bestParent, worstChange = slices.Min(parent), slices.Max(change)
	}
	allBetter := gain(bestParent, worstChange) > 0
	switch {
	case base == 0 || (iqr/base > m.Bound && !allBetter):
		v.outcome = "unresolved"
	case -medGain/base > m.Bound:
		v.outcome = "worse"
	default:
		v.outcome = "within bound"
	}
	return v
}

// loadSpec reads the metric declarations of a BENCHMARK.json.
func loadSpec(path string) (spec, error) {
	var sp spec
	data, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// checkDeclared verifies that a result carries exactly the metrics the
// benchmark declares for its mode: the end-to-end metrics untraced, the
// per-layer metrics traced. Without a declaration file at path (the
// binary run outside a checkout) there is nothing to check against.
func checkDeclared(r result, trace bool, path string) error {
	sp, err := loadSpec(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	declared := sp.EndToEnd
	if trace {
		declared = sp.PerLayer
	}
	var missing []string
	for _, m := range declared {
		got, ok := r.Metrics[m.Name]
		if !ok {
			missing = append(missing, m.Name)
		} else if got.Unit != m.Unit {
			return fmt.Errorf("metric %s has unit %s, %s declares %s", m.Name, got.Unit, path, m.Unit)
		}
	}
	if len(missing) > 0 || len(r.Metrics) != len(declared) {
		return fmt.Errorf("result has %d metrics, %s declares %d (missing: %v)", len(r.Metrics), path, len(declared), missing)
	}
	return nil
}

// runSet is one side's runs of one workload, in run order.
type runSet struct {
	metrics   map[string][]float64
	runs      int
	failed    int64
	incorrect int
}

// readRuns reads a result set: one JSON result per line, as the
// benchmark prints it or as --record appends it (tagged with the
// workload). Untagged lines belong to workload "".
func readRuns(r io.Reader) (map[string]*runSet, error) {
	sets := map[string]*runSet{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec recordLine
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		s := sets[rec.Workload]
		if s == nil {
			s = &runSet{metrics: map[string][]float64{}}
			sets[rec.Workload] = s
		}
		s.runs++
		s.failed += rec.Failed
		if !rec.Correct {
			s.incorrect++
		}
		for name, m := range rec.Metrics {
			s.metrics[name] = append(s.metrics[name], m.Value)
		}
	}
	return sets, sc.Err()
}

func readRunsFile(path string) (map[string]*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sets, err := readRuns(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sets, nil
}

// runCompare is the A/B mode: it judges every metric of every workload
// found in both result sets.
func runCompare(args []string, stdout, stderr io.Writer) error {
	flags := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	flags.SetOutput(stderr)
	specPath := flags.String("spec", "BENCHMARK.json", "benchmark definition holding the metrics and bounds")
	parentPath := flags.String("parent", "", "result lines of the parent commit's runs")
	changePath := flags.String("change", "", "result lines of the change's runs, alternated with the parent's")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if *parentPath == "" || *changePath == "" {
		return fmt.Errorf("--parent and --change are required")
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	parent, err := readRunsFile(*parentPath)
	if err != nil {
		return err
	}
	change, err := readRunsFile(*changePath)
	if err != nil {
		return err
	}
	var names []string
	for name := range parent {
		if change[name] != nil {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no workload appears in both result sets")
	}
	sort.Strings(names)
	for _, name := range names {
		report(stdout, name, sp, parent[name], change[name])
	}
	return nil
}

// report prints one workload's verdicts.
func report(w io.Writer, name string, sp spec, p, c *runSet) {
	fmt.Fprintf(w, "workload %q: %d parent runs, %d change runs\n", name, p.runs, c.runs)
	trusted := p.incorrect == 0 && c.incorrect == 0
	if !trusted {
		fmt.Fprintf(w, "  %d parent and %d change runs failed their output check: every metric is unresolved\n", p.incorrect, c.incorrect)
	}
	moreFailures := c.failed > p.failed
	if moreFailures {
		fmt.Fprintf(w, "  the change failed %d operations against the parent's %d: no gain counts\n", c.failed, p.failed)
	}
	fmt.Fprintf(w, "  %-36s %-34s %-34s %-7s %s\n", "metric", "parent Q1 / median / Q3", "change Q1 / median / Q3", "wins", "verdict")
	for _, m := range slices.Concat(sp.EndToEnd, sp.PerLayer) {
		pv, cv := p.metrics[m.Name], c.metrics[m.Name]
		if len(pv) == 0 || len(cv) == 0 {
			continue
		}
		v := judge(m, pv, cv)
		if !trusted || (moreFailures && v.outcome == "improved") {
			v.outcome = "unresolved"
		}
		fmt.Fprintf(w, "  %-36s %-34s %-34s %3d/%-3d %s\n", m.Name,
			fmt.Sprintf("%.4g / %.4g / %.4g %s", v.parent[0], v.parent[1], v.parent[2], m.Unit),
			fmt.Sprintf("%.4g / %.4g / %.4g %s", v.change[0], v.change[1], v.change[2], m.Unit),
			v.wins, v.pairs, v.outcome)
	}
}
