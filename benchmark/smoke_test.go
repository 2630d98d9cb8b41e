package main

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// shrunk is w cut down for a smoke run: a short warm-up, a single block
// of keys to preload on the rotating workload and, on the write-heavy
// one, enough reads that the traced pass's shortest window (a tenth of a
// second here) is sure to hold some.
func shrunk(w workload) workload {
	w.warmup = 100 * time.Millisecond
	if w.rotateEvery > 0 {
		w.blocks = 1
	}
	w.readShare = max(w.readShare, 500)
	return w
}

// repoSpec is the repository's BENCHMARK.json.
func repoSpec(t *testing.T) *benchmarkSpec {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// smokeConfig is a run cut to the given window, with the fewest set-ups.
func smokeConfig(t *testing.T, measure time.Duration) runConfig {
	dir := t.TempDir() // removed when the test ends, pass or fail
	return runConfig{
		spec: repoSpec(t), seed: 1, measure: measure,
		outDir: filepath.Join(dir, "out"), scratch: filepath.Join(dir, "scratch"),
	}
}

// The smoke runs wait — for their windows, for injected delay, for
// emulated flushes — far more than they compute, so all eight run at
// once, whatever GOMAXPROCS is.
func TestMain(m *testing.M) {
	flag.Parse()
	if err := flag.Set("test.parallel", "8"); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestSmokeTimed runs every workload for 0.3 s with the output
// checks on — sums, set membership, sampled linearizability and, on the
// durable workload, the restart from snapshots — and expects every
// end-to-end metric BENCHMARK.json declares, none of them zero.
func TestSmokeTimed(t *testing.T) {
	t.Parallel()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := smokeConfig(t, 300*time.Millisecond)
			rec, err := runTimed(shrunk(w), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Attempted == 0 || rec.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", rec.Correct, rec.Attempted, rec.Failed, rec.Errors)
			}
			_, missing, err := rec.resultLine(cfg.spec.EndToEnd, rec.EndToEnd)
			if err != nil || len(missing) > 0 {
				t.Errorf("result line: error %v, metrics not measured: %v", err, missing)
			}
			for name, m := range rec.EndToEnd {
				if m.Value <= 0 || m.Unit == "" {
					t.Errorf("%s = %v %q; want a positive value with a unit", name, m.Value, m.Unit)
				}
			}
			if left, _ := os.ReadDir(cfg.scratch); len(left) != 0 {
				t.Errorf("scratch directory still holds %d entries", len(left))
			}
		})
	}
}

// TestSmokeTraced runs the traced pass of every workload and expects
// every declared per-layer metric and a trace file. Its windows are
// tenths and fifths of the run's, hence the full second.
func TestSmokeTraced(t *testing.T) {
	t.Parallel()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := smokeConfig(t, time.Second)
			rec, err := runTraced(shrunk(w), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, missing, err := rec.resultLine(cfg.spec.PerLayer, rec.PerLayer); err != nil || len(missing) > 0 {
				t.Errorf("result line: error %v, metrics not measured: %v", err, missing)
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, w.name+".trace.json")); err != nil {
				t.Error(err)
			}
			if left, _ := os.ReadDir(cfg.scratch); len(left) != 0 {
				t.Errorf("scratch directory still holds %d entries", len(left))
			}
		})
	}
}

// TestPercentileRule: a percentile stands on at least ten samples beyond
// it, so p95 needs 200 samples; below that it is still estimated, and
// flagged, so that a slower build loses a flag's worth of confidence and
// not its result line. The median always stands.
func TestPercentileRule(t *testing.T) {
	samples := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i+1) * time.Millisecond
		}
		return out
	}
	if v, ok := percentile(samples(199), 0.95); ok || v != 190*time.Millisecond {
		t.Errorf("p95 of 199 samples = %v, %v; want 190ms as an estimate only", v, ok)
	}
	if v, ok := percentile(samples(200), 0.95); !ok || v != 191*time.Millisecond {
		t.Errorf("p95 of 200 samples = %v, %v; want 191ms", v, ok)
	}
	if v, ok := percentile(samples(5), 0.50); !ok || v != 3*time.Millisecond {
		t.Errorf("p50 of 5 samples = %v, %v; want 3ms", v, ok)
	}
	if _, ok := percentile(nil, 0.50); ok {
		t.Error("p50 reported from no samples")
	}

	m := metricSet{}
	m.setQuantile("update_p95_ms", samples(199), 0.95, ms)
	m.setQuantile("update_p50_ms", samples(199), 0.50, ms)
	m.setQuantile("read_p50_ms", nil, 0.50, ms)
	if got := m["update_p95_ms"]; !got.LowSamples || got.Value != 190 || got.Samples != 199 {
		t.Errorf("p95 of 199 samples recorded as %+v; want 190 flagged low_samples", got)
	}
	if m["update_p50_ms"].LowSamples {
		t.Error("p50 of 199 samples flagged low_samples")
	}
	if _, ok := m["read_p50_ms"]; ok {
		t.Error("a percentile was recorded from no samples")
	}
	rec := &record{Workload: "large-set", Correct: true, Attempted: 199}
	line, missing, err := rec.resultLine([]specMetric{{Name: "update_p95_ms"}, {Name: "read_p50_ms"}}, m)
	if err != nil || !strings.Contains(line, `"update_p95_ms":{"value":190`) || len(missing) != 1 || missing[0] != "read_p50_ms" {
		t.Errorf("result line %s, missing %v, error %v; want the flagged p95 in it and read_p50_ms missing", line, missing, err)
	}
}

// TestSameSeedSameInputs: the op stream is a function of the seed, and
// the stepped core probe's message and byte counts repeat exactly.
func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		if a, b := w.streamHash(7), w.streamHash(7); a != b {
			t.Errorf("%s: same seed gave stream hashes %s and %s", w.name, a, b)
		}
		if a, b := w.streamHash(7), w.streamHash(8); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same stream hash", w.name)
		}
		var first [2]stepTotals
		for pass := 0; pass < 2; pass++ {
			var template = setTemplate(w.preloadLen)
			if w.preloadLen == 0 {
				template = nil
			}
			updates, queries, err := newStepper(w, template).run(7, 120)
			if err != nil {
				t.Fatal(err)
			}
			got := [2]stepTotals{updates, queries}
			for i := range got {
				got[i].elapsed = 0
			}
			if pass == 0 {
				first = got
			} else if got != first {
				t.Errorf("%s: stepped counts differ between passes: %+v then %+v", w.name, first, got)
			}
		}
	}
}

// TestSpec holds BENCHMARK.json to the driver's limits and to the
// workloads this package has. (That every declared metric is measured,
// and none undeclared, is what the smoke runs above check.)
func TestSpec(t *testing.T) {
	spec := repoSpec(t)
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		if _, ok := workloadByName(wl.Name); !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the code does not have", wl.Name)
		}
		if len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", wl.Name)
		}
	}
	sawSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if math.Abs(q1-2.75) > 1e-9 || math.Abs(q3-8.25) > 1e-9 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestCompare: a metric worse than its bound regresses, one whose own
// repeats spread wider than the bound is unresolved, and more failed ops
// regress whatever the metrics say.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := &benchmarkSpec{EndToEnd: []specMetric{
		{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.1},
		{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "kv-read-heavy"})
	write := func(sub string, throughput, readP50 measurement, failed uint64) string {
		return writeRecord(t, filepath.Join(dir, sub), metricSet{"throughput_ops_s": throughput, "read_p50_ms": readP50}, failed)
	}
	one := func(v float64) measurement { return measurement{Value: v} }
	base := write("base", one(1000), one(1.0), 0)

	cases := []struct {
		name      string
		dir       string
		regressed bool
		contains  string
	}{
		{"within bounds", write("same", one(950), one(1.05), 0), false, "same"},
		{"throughput down 20%", write("slow", one(800), one(1.0), 0), true, "REGRESSED"},
		{"latency down 20%", write("fast", one(1000), one(0.8), 0), false, "improved"},
		{"noisy repeats", write("noisy", one(1000), measurement{Value: 1.5, Values: []float64{1.0, 1.5, 2.0, 2.5}}, 0), false, "unresolved"},
		{"more failures", write("failing", one(1000), one(1.0), 3), true, "failed ops rose"},
		{"too few samples", write("thin", one(1000), measurement{Value: 2.0, LowSamples: true}, 0), false, "unresolved"},
		{"metric not measured", writeRecord(t, filepath.Join(dir, "partial"), metricSet{"throughput_ops_s": one(1000)}, 0), true, "REGRESSED (not measured)"},
		{"no record", emptyRecordDir(t, filepath.Join(dir, "absent")), true, "no record on the new side"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		regressed, err := compare(spec, base, c.dir, &out)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if regressed != c.regressed || !strings.Contains(out.String(), c.contains) {
			t.Errorf("%s: regressed=%v, want %v and %q in:\n%s", c.name, regressed, c.regressed, c.contains, out.String())
		}
	}
}

// writeRecord writes a kv-read-heavy record with the given end-to-end
// metrics into dir and returns dir.
func writeRecord(t *testing.T, dir string, endToEnd metricSet, failed uint64) string {
	rec := &record{Workload: "kv-read-heavy", Attempted: 1000, Failed: failed, Correct: true, EndToEnd: endToEnd}
	if err := rec.write(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// emptyRecordDir is a record set whose kv-read-heavy run wrote nothing,
// as a run that fails its output checks does.
func emptyRecordDir(t *testing.T, dir string) string {
	rec := &record{Workload: "some-other-workload", Attempted: 1, Correct: true}
	if err := rec.write(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}
