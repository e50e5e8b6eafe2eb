package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's outcome. Its JSON form is the benchmark's last
// output line: exactly correct, attempted, failed and metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order []string // metric names in report order
	notes []string // simulated results and checks, printed for the record
}

func newResult() result {
	return result{Correct: true, Metrics: map[string]metric{}}
}

// set records a metric, keeping first-set order for the printout.
func (r *result) set(name, unit string, v float64) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect and says why.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	msg := fmt.Sprintf("CHECK FAILED: "+format, args...)
	for _, n := range r.notes {
		if n == msg {
			return
		}
	}
	r.notes = append(r.notes, msg)
}

// recordLine is one line of an A/B result set: the result tagged with
// the run it came from.
type recordLine struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// emit prints the human-readable report and then the JSON result as the
// last line, and appends the tagged result to o.record when set.
func emit(w io.Writer, r result, o options) error {
	for _, name := range r.order {
		if v := r.Metrics[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "metric %-36s %16.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if o.record != "" {
		tagged, err := json.Marshal(recordLine{Workload: o.workload, Seed: o.seed, Trace: o.trace, result: r})
		if err != nil {
			return err
		}
		if err := appendLine(o.record, tagged); err != nil {
			return fmt.Errorf("record: %w", err)
		}
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
