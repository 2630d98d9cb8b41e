// Command bench regenerates the paper's evaluation figures (§4) against
// the Go reimplementation — throughput sweeps (Figure 1), tail latency
// (Figure 2), read round-trip distributions (Figure 3), the node-failure
// timeline (Figure 4) — and the comparisons beyond the paper that the
// repo benchmark (BENCHMARK.json, `bash benchmark/run.sh`) cannot make:
// the round-lease fast path and the protocol shootout. bench.Figures is
// the one table of them; `bench -h` prints it.
//
// Every figure runs in virtual time on a transport.Fabric, so its output
// is a pure function of -seed and the scale, on any host. -duration sizes
// each data point's op count; raise it and -clients to approach the
// paper's 10-minute, 4096-client runs.
//
// Usage:
//
//	bench -figure all
//	bench -figure 1 -duration 10s -clients 1,8,64,512,4096
//	bench -figure 3 -batch 5ms
//	bench -figure protocols -out .
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"crdtsmr/internal/bench"
	"crdtsmr/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	valid := strings.Join(bench.FigureNames(), ", ") + ", or all"
	var (
		figure   = flag.String("figure", "all", "figure to regenerate: "+valid)
		duration = flag.Duration("duration", 2*time.Second, "sizes each data point's op count in virtual time (paper: 10m)")
		clients  = flag.String("clients", "1,8,64,256", "comma-separated client sweep (paper: 1..4096)")
		batch    = flag.Duration("batch", 5*time.Millisecond, "batching window for the batched variant (paper: 5ms)")
		replicas = flag.Int("replicas", 3, "number of replicas (paper: 3)")
		minDelay = flag.Duration("min-delay", 50*time.Microsecond, "emulated per-message network delay, lower bound")
		maxDelay = flag.Duration("max-delay", 200*time.Microsecond, "emulated per-message network delay, upper bound")
		seed     = flag.Int64("seed", 1, "simulation seed")
		outDir   = flag.String("out", "", "directory to write BENCH_<figure>.json records into (figures that emit them)")
	)
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintln(w, "\nFigures:")
		for _, f := range bench.Figures {
			fmt.Fprintf(w, "  %-10s %s\n", f.Name, f.Question)
		}
	}
	flag.Parse()

	sweep, err := parseClients(*clients)
	if err != nil {
		return err
	}
	scale := bench.Scale{
		Duration: *duration,
		Clients:  sweep,
		Batch:    *batch,
		Replicas: *replicas,
		Net:      transport.Net{MinDelay: *minDelay, MaxDelay: *maxDelay},
		Seed:     *seed,
	}

	out := os.Stdout
	ran := false
	for _, f := range bench.Figures {
		if *figure != "all" && *figure != f.Name {
			continue
		}
		if ran {
			fmt.Fprintln(out)
		}
		ran = true
		fig, err := f.Run(out, scale)
		if err != nil {
			return err
		}
		// The text table already went to stdout; -out also persists the
		// figure's machine-readable record, when it emits one.
		if *outDir == "" || fig == nil {
			continue
		}
		if fig.GitSHA == "" {
			fig.GitSHA = gitHead()
		}
		path := filepath.Join(*outDir, "BENCH_"+fig.Figure+".json")
		if err := fig.WriteFile(path); err != nil {
			return err
		}
		fmt.Fprintln(out, "wrote", path)
	}
	if !ran {
		return fmt.Errorf("unknown figure %q (want %s)", *figure, valid)
	}
	return nil
}

// gitHead is the fallback revision stamp for `go run` builds, which
// carry no VCS build info.
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return string(bytes.TrimSpace(out))
}

func parseClients(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad count %q (want positive integers)", p)
		}
		out = append(out, n)
	}
	return out, nil
}
