// Command perfbench is streamscale's benchmark. It runs one named workload
// for a fixed time, checks the program's outputs, and prints every metric
// by name and unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also records spans around each call into the program's layers and prints
// the per-layer metrics instead. README.md in this directory explains the
// workloads and how to run them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: sim-cells | native-open")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".", "directory the span file of a traced run is written to")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.size = 1

	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printReport(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printReport(w io.Writer, rep report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
