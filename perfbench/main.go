// Command perfbench is the repository benchmark: one process runs one
// named workload against the scheduler's public layers, checks every
// delivered result, and prints its metrics as a JSON object on the last
// line of standard output.
//
//	bash perfbench/run.sh --workload multipipe --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	multipipe   single blocks, pipesched.CompileCtx, ExampleMachine, paper mode
//	scoreboard  single blocks, SimulationMachine, scoreboard=8x2
//	service     server.Server driven through Handler().ServeHTTP by two clients
//	campaign    campaign.Runner + LocalCompiler: cold build, reopen, edit rounds
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 repeats that window, then runs the workload again with the
// benchmark calling each layer itself under a span, and prints the
// per-layer metrics instead; its spans are written once, at the end, to
// spans/<workload>.jsonl under the work directory.
//
// The first stdout line is the environment stamp; progress and
// diagnostics go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// DefaultSeed is the workload seed used when --seed is not given.
const DefaultSeed = 1

// corpusSeed pins the generated corpus. The run seed renames variables,
// orders the work, and drives every random choice a workload makes, but
// the blocks' structure — and therefore the search effort — is the same
// for every seed, so runs at different seeds measure the same work.
const corpusSeed = 1

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 11

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// outcome is what one workload run reports.
type outcome struct {
	Attempted int
	Failed    int
	Metrics   metrics
	// Counters are the exact counts that must repeat between runs at
	// one seed (checked against the record an earlier run left).
	Counters map[string]int64
}

// config carries the command line into a workload.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Scale shrinks every corpus, pool and floor (1 = full size); the
	// self-test runs at a tiny scale.
	Scale float64
	// WorkDir holds cache directories, manifests and the exact-counter
	// record; it lives inside the checkout.
	WorkDir string
	// SpansOut receives the traced run's spans as JSON lines; it lives
	// beside the exact-counter records and holds the latest traced run
	// of the workload.
	SpansOut string
	Log      io.Writer
}

// scaled applies Scale to a full-size count, keeping at least lo.
func (c *config) scaled(n, lo int) int {
	v := int(float64(n) * c.Scale)
	if v < lo {
		v = lo
	}
	return v
}

func (c *config) logf(format string, args ...any) {
	fmt.Fprintf(c.Log, "perfbench: "+format+"\n", args...)
}

type workloadFunc func(*config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"multipipe":  runMultipipe,
	"scoreboard": runScoreboard,
	"service":    runService,
	"campaign":   runCampaign,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: multipipe, scoreboard, service or campaign")
		seed     = fs.Int64("seed", DefaultSeed, "workload seed")
		seconds  = fs.Float64("seconds", 10, "length of the measured window in seconds")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		scale    = fs.Float64("scale", 1, "corpus size factor (the self-test uses a tiny one)")
		workDir  = fs.String("workdir", ".bench_build/perfbench-work", "scratch directory inside the checkout")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *scale <= 0 {
		fmt.Fprintf(stderr, "perfbench: usage: --workload %s --seed N --seconds S --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	wd, err := filepath.Abs(*workDir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := &config{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Scale: *scale, WorkDir: filepath.Join(wd, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
		SpansOut: filepath.Join(wd, "spans", *workload+".jsonl"), Log: stderr,
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(cfg.WorkDir)

	stamp := environment(cfg)
	line, _ := json.Marshal(map[string]any{"env": stamp})
	fmt.Fprintln(stdout, string(line))

	start := time.Now()
	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	// Exact counters must repeat between runs at one seed: a mismatch
	// against the record an earlier run left is a failure.
	out.Failed += checkCounterRecord(cfg, filepath.Join(wd, "counters"), out.Counters)
	cfg.logf("%s seed=%d done in %.1fs: attempted=%d failed=%d", cfg.Workload, cfg.Seed,
		time.Since(start).Seconds(), out.Attempted, out.Failed)

	if out.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s: no operation attempted\n", cfg.Workload)
		return 1
	}
	res := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{out.Failed == 0, out.Attempted, out.Failed, out.Metrics}
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
