// Command wmbench is the repository's pipeline benchmark. It drives the
// weather-map pipeline (netsim → render → collect → extract → tsdb → query
// API → analysis) through its public Go functions on the netsim default
// scenario, checks every output, and prints each metric with its unit.
//
// Usage (from the repository root; wmbench/run.sh builds and runs it):
//
//	wmbench --workload crawl|dashboard|reprocess --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 measures half the
// time untraced and half traced, prints the per-layer metrics, the
// per-layer self times and the tracing overhead, and writes the spans to
// <work>/spans/. The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// A failed output check prints that line with "correct": false and exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// config is everything a workload run depends on. The sizes default to the
// benchmark's own; the self-tests shrink them.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	work    string // scratch directory for archives, datasets and spans
	small   bool   // reduced-size inputs and one set-up, for the self-tests
	corrupt bool   // inject one wrong output, so the self-tests see a check fail
}

// setups is how many set-ups a run makes; setup_s is their median.
func (c config) setups(n int) int {
	if c.small {
		return 1
	}
	return n
}

// workloadFunc runs one workload: its set-ups, then one measured phase per
// entry of phases (untraced, or untraced then traced), then its checks.
type workloadFunc func(ctx context.Context, cfg config, phases []bool) (*report, error)

var workloads = map[string]workloadFunc{
	"crawl":     runCrawl,
	"dashboard": runDashboard,
	"reprocess": runReprocess,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: crawl, dashboard or reprocess")
		seed    = flag.Int64("seed", 1, "seed for every random choice the workload makes")
		seconds = flag.Float64("seconds", 10, "measured time per run, in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		work    = flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
	}
	dir, err := os.MkdirTemp(mustMkdir(*work), *name+"-")
	if err != nil {
		fatal(err)
	}
	cfg.work = dir
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	rep, err := execute(ctx, fn, cfg)
	stop()
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout, *name, cfg.trace)
	if !rep.correct() {
		os.Exit(1)
	}
}

// execute runs fn with one measured phase, or an untraced and a traced
// phase of half the time each, and writes the spans of a traced run.
func execute(ctx context.Context, fn workloadFunc, cfg config) (*report, error) {
	phases := []bool{false}
	if cfg.trace {
		cfg.seconds /= 2
		phases = []bool{false, true}
	}
	rep, err := fn(ctx, cfg, phases)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		spanDir := filepath.Join(filepath.Dir(cfg.work), "spans")
		if err := rep.phases[1].tr.writeFile(mustMkdir(spanDir), filepath.Base(cfg.work)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		err = errors.New("interrupted")
	}
	fmt.Fprintln(os.Stderr, "wmbench:", err)
	os.Exit(1)
}

// jsonLine is the result line the benchmark prints last.
type jsonLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func marshalLine(l jsonLine) string {
	b, err := json.Marshal(l)
	if err != nil {
		fatal(err)
	}
	return string(b)
}
