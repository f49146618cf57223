// Command e2ebench is the end-to-end serving benchmark: for one workload
// and seed it generates the instance, boots the real serving stack
// in-process on loopback sockets (engine, serve handler, and for the
// cluster workload two shard nodes behind RARC plus a coordinator),
// drives it through the client SDK, checks every answer against an
// in-process oracle, and prints the metrics as one JSON object on the
// last line of standard output.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash e2ebench/run.sh --workload read_uniform --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics, measured with
// no instrumentation installed. With --trace 1 the same workload runs
// with span recorders around every layer seam the benchmark owns (SDK
// call, HTTP transport, mounted handler, shard-node backend, WAL
// filesystem, RARC listeners), alternating traced and untraced chunks,
// then probes the layers directly; the JSON carries the per-layer
// metrics and standard error carries the layer cost-budget table.
//
// A human-readable report of everything measured goes to standard
// error in both modes. See BENCHMARK.json for the workload definitions
// and metric list.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs one workload, and prints the result. It
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wname   = fs.String("workload", "", "workload name: read_uniform, read_hot_write, cluster_read")
		seed    = fs.Int64("seed", 1, "seed for the generated instance, rank stream and writes")
		seconds = fs.Float64("seconds", 20, "length of the measured load phase")
		traceOn = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*wname]
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want one of %v)\n", *wname, workloadNames())
		return 2
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(stderr, "e2ebench: --trace must be 0 or 1")
		return 2
	}
	return runAndPrint(runConfig{
		w:       w,
		seed:    *seed,
		seconds: *seconds,
		traced:  *traceOn == 1,
		log:     stderr,
	}, stdout)
}

// runAndPrint runs one workload and prints its result as one JSON line
// on stdout. It returns the process exit code; nothing is printed on
// stdout unless the run completed.
func runAndPrint(cfg runConfig, stdout io.Writer) int {
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(cfg.log, "e2ebench: %s: %v\n", cfg.w.name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(cfg.log, "e2ebench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects metrics in insertion order for the stderr report.
type metricSet struct {
	names []string
	m     map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{m: make(map[string]metric)} }

func (s *metricSet) set(name, unit string, v float64) {
	if _, ok := s.m[name]; !ok {
		s.names = append(s.names, name)
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

func (s *metricSet) report(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n", title)
	for _, name := range s.names {
		m := s.m[name]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
