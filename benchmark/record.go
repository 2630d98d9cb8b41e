package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// benchmarkSpec is BENCHMARK.json, the contract the driver reads. It is
// the one place a metric's name, unit, direction and bound are written
// down: runs take units and the default run length from it, -compare
// directions and bounds.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// measurement is one reported value.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations stand behind a latency figure.
	Samples int `json:"samples,omitempty"`
	// LowSamples marks a tail percentile taken from fewer samples than the
	// percentile rule asks for: an estimate, which -compare does not judge.
	LowSamples bool `json:"low_samples,omitempty"`
	// Values holds every repeat when a record was made with -repeat > 1;
	// Value is then their median.
	Values []float64 `json:"values,omitempty"`
}

// metricSet collects measurements by name.
type metricSet map[string]measurement

func (m metricSet) set(name string, v float64) { m[name] = measurement{Value: v} }

// setQuantile records the q-quantile of sorted latencies, in the unit
// conv converts to. Nothing is recorded from no samples.
func (m metricSet) setQuantile(name string, sorted []time.Duration, q float64, conv func(time.Duration) float64) {
	if len(sorted) == 0 {
		return
	}
	v, ok := percentile(sorted, q)
	m[name] = measurement{Value: conv(v), Samples: len(sorted), LowSamples: !ok}
}

// stamp gives every measurement the unit its metric has in defs, and
// refuses a measurement defs does not declare.
func (m metricSet) stamp(defs []specMetric) error {
	units := map[string]string{}
	for _, d := range defs {
		units[d.Name] = d.Unit
	}
	for name, v := range m {
		unit, ok := units[name]
		if !ok {
			return fmt.Errorf("benchmark: metric %s is measured but BENCHMARK.json does not declare it", name)
		}
		v.Unit = unit
		m[name] = v
	}
	return nil
}

// environment is what a record says about where it was made.
type environment struct {
	GitSHA      string  `json:"git_sha"`
	GoVersion   string  `json:"go_version"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Shards      int     `json:"shards"`
	Sessions    int     `json:"sessions"`
	MinDelayMS  float64 `json:"injected_min_delay_ms"`
	MaxDelayMS  float64 `json:"injected_max_delay_ms"`
	FlushMS     float64 `json:"emulated_flush_ms"`
	Seed        uint64  `json:"seed"`
	Seconds     float64 `json:"seconds"`
	StreamHash  string  `json:"op_stream_hash"`
	ClosedLoop  bool    `json:"closed_loop"`
	Replicas    int     `json:"replicas"`
	ClientConns int     `json:"client_conns"`
}

// record is the self-describing result of one workload: every metric by
// name with its unit, and the settings and inputs that produced it.
type record struct {
	Workload  string      `json:"workload"`
	Env       environment `json:"env"`
	Attempted uint64      `json:"attempted"`
	Failed    uint64      `json:"failed"`
	Correct   bool        `json:"correct"`
	EndToEnd  metricSet   `json:"end_to_end,omitempty"`
	// SliceOpsPerSec is the timed pass's throughput second by second: how
	// steady the host was while the run was measured. No metric comes
	// from it.
	SliceOpsPerSec []float64 `json:"slice_ops_s,omitempty"`
	PerLayer       metricSet `json:"per_layer,omitempty"`
	Errors         []string  `json:"errors,omitempty"`
}

func newRecord(w workload, cfg runConfig, shards int) *record {
	return &record{
		Workload: w.name,
		Env: environment{
			GitSHA:      gitSHA(),
			GoVersion:   runtime.Version(),
			NumCPU:      runtime.NumCPU(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			Shards:      shards,
			Sessions:    w.sessions,
			MinDelayMS:  ms(w.minDelay),
			MaxDelayMS:  ms(w.maxDelay),
			FlushMS:     flushMS(w),
			Seed:        cfg.seed,
			Seconds:     cfg.measure.Seconds(),
			StreamHash:  w.streamHash(cfg.seed),
			ClosedLoop:  true,
			Replicas:    3,
			ClientConns: 3,
		},
	}
}

func flushMS(w workload) float64 {
	if w.durable {
		return ms(persistWriteDelay)
	}
	return 0
}

// gitSHA is the commit of the checkout, or "unknown" outside a git
// repository (the driver's checkouts are plain directories).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// print writes the record's metrics by name with their units, in the
// order BENCHMARK.json declares them.
func (r *record) print(w io.Writer, spec *benchmarkSpec) {
	for _, part := range []struct {
		defs []specMetric
		set  metricSet
	}{{spec.EndToEnd, r.EndToEnd}, {spec.PerLayer, r.PerLayer}} {
		for _, d := range part.defs {
			m, ok := part.set[d.Name]
			if !ok {
				continue
			}
			extra := ""
			if m.Samples > 0 {
				extra = fmt.Sprintf("  (n=%d)", m.Samples)
			}
			if m.LowSamples {
				extra += "  too few samples for this percentile: an estimate"
			}
			fmt.Fprintf(w, "  %-28s %14.4f %s%s\n", d.Name, m.Value, m.Unit, extra)
		}
	}
}

// merge folds a later record of the same workload (a traced pass, or a
// repeat) into r.
func (r *record) merge(o *record) {
	r.Correct = r.Correct && o.Correct
	r.Errors = append(r.Errors, o.Errors...)
	if r.EndToEnd == nil {
		r.EndToEnd, r.Attempted, r.Failed = o.EndToEnd, o.Attempted, o.Failed
	} else if o.EndToEnd != nil {
		r.EndToEnd.addRepeat(o.EndToEnd)
	}
	if r.PerLayer == nil {
		r.PerLayer = o.PerLayer
	} else if o.PerLayer != nil {
		r.PerLayer.addRepeat(o.PerLayer)
	}
}

// addRepeat appends o's values as further repeats; Value becomes the
// median of all repeats.
func (m metricSet) addRepeat(o metricSet) {
	for name, om := range o {
		cur, ok := m[name]
		if !ok {
			m[name] = om
			continue
		}
		if cur.Values == nil {
			cur.Values = []float64{cur.Value}
		}
		cur.Values = append(cur.Values, om.Value)
		cur.Value = median(cur.Values)
		m[name] = cur
	}
}

func (r *record) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.Workload+".json"), append(data, '\n'), 0o644)
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the metrics of one pass in defs' order of
// declaration. A metric that could not be measured at all (no successful
// op of its kind in the whole window) is left out and named in missing;
// the run still reports what it saw.
func (r *record) resultLine(defs []specMetric, set metricSet) (text string, missing []string, err error) {
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]resultValue{}}
	for _, d := range defs {
		m, ok := set[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		line.Metrics[d.Name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	return string(data), missing, err
}
