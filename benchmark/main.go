// Command benchmark is the repository's regression yardstick: four
// workloads against a three-replica cluster served exactly as
// `crdtsmrd serve` serves it, ten end-to-end metrics measured with
// tracing off, and a traced pass that times every layer from outside
// through its public functions. See README.md in this directory.
//
//	bash benchmark/run.sh -workload all -seed 1 -out <dir>
//	bash benchmark/run.sh --workload kv-read-heavy --seed 7 --seconds 25 --trace 0
//	bash benchmark/run.sh -compare old/ new/
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errRegressed is -compare's verdict; the table has already said why.
var errRegressed = errors.New("regression")

func run() error {
	name := flag.String("workload", "all", "workload to run: a name from BENCHMARK.json, or all")
	seed := flag.Uint64("seed", 1, "seed of the op stream and of the injected delays")
	seconds := flag.Int("seconds", 0, "length of the measured window (0: BENCHMARK.json's run_seconds)")
	trace := flag.String("trace", "both", "0: the timed pass (end-to-end metrics); 1: the traced pass (per-layer metrics); both")
	out := flag.String("out", filepath.Join(".bench_build", "out"), "directory for <workload>.json records and <workload>.trace.json")
	scratch := flag.String("scratch", filepath.Join(".bench_build", "scratch"), "directory for DataDirs and probe files, emptied as the run goes")
	repeat := flag.Int("repeat", 1, "run each pass this many times; the record keeps every value and reports the median")
	doCompare := flag.Bool("compare", false, "compare two records (files or directories): benchmark -compare old new")
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark's contract: workloads, metric names, units, directions and bounds")
	flag.Parse()

	spec, err := loadSpec(*specPath)
	if err != nil {
		return fmt.Errorf("run from the root of the checkout, or give -spec: %w", err)
	}
	if *doCompare {
		if flag.NArg() != 2 {
			return fmt.Errorf("usage: benchmark -compare old new")
		}
		regressed, err := compare(spec, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err == nil && regressed {
			err = errRegressed
		}
		return err
	}

	if *trace != "0" && *trace != "1" && *trace != "both" {
		return fmt.Errorf("-trace %q: want 0, 1 or both", *trace)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	var selected []workload
	for _, wl := range spec.Workloads {
		if *name != "all" && *name != wl.Name {
			continue
		}
		w, ok := workloadByName(wl.Name)
		if !ok {
			return fmt.Errorf("%s lists workload %q, which this benchmark does not have", *specPath, wl.Name)
		}
		selected = append(selected, w)
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}
	defer os.Remove(*scratch) // leaves nothing behind once every run has removed its own directories

	// The driver's contract: one workload, one pass, and the result as
	// the last line of standard output.
	driver := len(selected) == 1 && *trace != "both"
	for _, w := range selected {
		cfg := runConfig{
			spec: spec, seed: *seed, measure: time.Duration(*seconds) * time.Second,
			setupTime: setupTime, outDir: *out, scratch: *scratch,
		}
		var rec *record
		for i := 0; i < *repeat; i++ {
			if *trace != "1" {
				r, err := runTimed(w, cfg)
				if err != nil {
					return err
				}
				rec = merged(rec, r)
			}
			if *trace != "0" {
				r, err := runTraced(w, cfg)
				if err != nil {
					return err
				}
				rec = merged(rec, r)
			}
		}
		fmt.Printf("%s  seed %d  %d s  %d sessions  %d shards  GOMAXPROCS %d", w.name, cfg.seed, *seconds, w.sessions, rec.Env.Shards, rec.Env.GOMAXPROCS)
		if w.injected {
			fmt.Printf("  injected delay %.1f-%.1f ms per hop", ms(w.minDelay), ms(w.maxDelay))
		}
		if w.durable {
			fmt.Printf("  emulated flush %.1f ms", ms(persistWriteDelay))
		}
		fmt.Printf("\n  attempted %d  failed %d  outputs correct\n", rec.Attempted, rec.Failed)
		if len(rec.SliceOpsPerSec) > 0 {
			fmt.Printf("  ops/s second by second:")
			for _, v := range rec.SliceOpsPerSec {
				fmt.Printf(" %.0f", v)
			}
			fmt.Println()
		}
		for _, e := range rec.Errors {
			fmt.Printf("  error: %s\n", e)
		}
		rec.print(os.Stdout, spec)
		if err := rec.write(cfg.outDir); err != nil {
			return err
		}
		if driver {
			defs, set := spec.EndToEnd, rec.EndToEnd
			if *trace == "1" {
				defs, set = spec.PerLayer, rec.PerLayer
			}
			line, missing, err := rec.resultLine(defs, set)
			if err != nil {
				return err
			}
			for _, name := range missing {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %s could not be measured: no successful op of its kind\n", w.name, name)
			}
			fmt.Println(line)
		}
	}
	return nil
}

func merged(into, r *record) *record {
	if into == nil {
		return r
	}
	into.merge(r)
	return into
}
