package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadRecords reads one record file, or every <workload>.json of a
// directory, keyed by workload.
func loadRecords(path string) (map[string]*record, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	recs := map[string]*record{}
	for _, f := range files {
		if strings.HasSuffix(f, ".trace.json") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if rec.Workload == "" {
			return nil, fmt.Errorf("%s: not a benchmark record", f)
		}
		recs[rec.Workload] = &rec
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark records", path)
	}
	return recs, nil
}

// spread is the distance between the first and third quartile of a
// metric's repeats as a share of their median (0 with fewer than two
// repeats, which cannot show a spread).
func spread(m measurement) float64 {
	if len(m.Values) < 2 || m.Value == 0 {
		return 0
	}
	q1, q3 := quartiles(m.Values)
	return math.Abs((q3 - q1) / m.Value)
}

// quartiles returns the first and third quartile by the exclusive
// method (Python's statistics.quantiles(v, n=4) default).
func quartiles(v []float64) (q1, q3 float64) {
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	at := func(p float64) float64 {
		pos := p*float64(len(sorted)+1) - 1
		if pos <= 0 {
			return sorted[0]
		}
		if pos >= float64(len(sorted)-1) {
			return sorted[len(sorted)-1]
		}
		lo := int(pos)
		return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
	}
	return at(0.25), at(0.75)
}

// compare prints one row per workload and end-to-end metric and reports
// whether anything regressed: a metric worse than its bound, a workload
// or metric the old side has and the new side lacks (a run that failed
// its checks writes no record), or a higher share of failed ops. A
// pairing is unresolved, not unchanged, when either side's own repeats
// spread wider than the bound or its percentile stands on too few samples.
func compare(spec *benchmarkSpec, oldPath, newPath string, out io.Writer) (regressed bool, err error) {
	olds, err := loadRecords(oldPath)
	if err != nil {
		return false, err
	}
	news, err := loadRecords(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-18s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "worse by", "bound", "verdict")
	for _, wl := range spec.Workloads {
		o, n := olds[wl.Name], news[wl.Name]
		if o == nil {
			continue // nothing to hold the new side to
		}
		if n == nil {
			fmt.Fprintf(out, "%-18s no record on the new side  REGRESSED\n", wl.Name)
			regressed = true
			continue
		}
		for _, sm := range spec.EndToEnd {
			om, ook := o.EndToEnd[sm.Name]
			nm, nok := n.EndToEnd[sm.Name]
			if !ook {
				continue
			}
			if !nok {
				fmt.Fprintf(out, "%-18s %-18s %14.4f %14s %9s %6.1f%%  REGRESSED (not measured)\n", wl.Name, sm.Name, om.Value, "-", "", 100*sm.Bound)
				regressed = true
				continue
			}
			worse := (nm.Value - om.Value) / om.Value
			if sm.Better == "higher" {
				worse = -worse
			}
			verdict := "same"
			switch {
			case om.LowSamples || nm.LowSamples || spread(om) > sm.Bound || spread(nm) > sm.Bound:
				verdict = "unresolved"
			case worse > sm.Bound:
				verdict = "REGRESSED"
				regressed = true
			case worse < -sm.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(out, "%-18s %-18s %14.4f %14.4f %+8.1f%% %6.1f%%  %s\n", wl.Name, sm.Name, om.Value, nm.Value, 100*worse, 100*sm.Bound, verdict)
		}
		if failedShare(n) > failedShare(o) {
			fmt.Fprintf(out, "%-18s failed ops rose from %d/%d to %d/%d  REGRESSED\n", wl.Name, o.Failed, o.Attempted, n.Failed, n.Attempted)
			regressed = true
		}
	}
	return regressed, nil
}

func failedShare(r *record) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}
