// Command perfbench is the repository benchmark. It measures, from
// outside the program, what a user of the Y(φ) toolkit sees: set-up
// time, throughput, latency, memory and failures, on four seeded
// workloads, and checks every answer it times against an independent
// evaluation path. A traced run (-trace 1) reports per-layer metrics from
// spans recorded around the public calls of each layer.
//
// Usage (from the repository root; run.sh builds the harness and gsuserve):
//
//	bash perfbench/run.sh --workload study|propagate|serve|scenario|all \
//	    --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 when
// every answer was correct and no batch op failed, and 1 otherwise (2 on
// usage errors).
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the machine-readable last line of a run.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config carries the command-line settings into a workload.
type config struct {
	seed     int64
	seconds  int
	trace    bool
	serveBin string
	// outDir receives the traced run's spans and the daemon's log; empty
	// writes neither.
	outDir string
	log    io.Writer
}

// outcome is what a workload run hands back for reporting. Latencies
// hold one value per op (on serve, per scheduled request: the fastest of
// its rounds, while attempted counts every request sent); opsPerS counts
// only good ops: correct and, on serve, answered 200 in time and not
// degraded.
type outcome struct {
	setup     []time.Duration
	latencies []time.Duration
	opsPerS   float64
	attempted int
	// failed counts serve requests that errored, were refused, timed
	// out, were degraded or answered late; wrong counts answers that
	// failed the correctness check and batch ops that errored. Both
	// enter error_ratio; only wrong fails the run.
	failed, wrong int
	// rssMB holds the resident-set samples of the process doing the work
	// over the timed phase; peak_rss_mb is their 90th percentile, which a
	// single collector overshoot cannot move.
	rssMB  []float64
	layers map[string]metric
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"study":     runStudy,
	"propagate": runPropagate,
	"serve":     runServe,
	"scenario":  runScenario,
}

// workloadOrder is the order "-workload all" runs them in.
var workloadOrder = []string{"study", "propagate", "serve", "scenario"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: study, propagate, serve, scenario or all")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "nominal length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	serveBin := fs.String("serve-bin", "", "path of the gsuserve binary (serve workload)")
	outDir := fs.String("out-dir", "", "directory for the traced run's spans and the gsuserve log (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *seed < 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1, -trace 0 or 1, -seed >= 0")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	} else if workloads[*name] == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, serveBin: *serveBin, outDir: *outDir, log: stdout}
	total := summary{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		s, err := runWorkload(n, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		total.Correct = total.Correct && s.Correct
		total.Attempted += s.Attempted
		total.Failed += s.Failed
		for k, v := range s.Metrics {
			if len(names) > 1 {
				k = n + "." + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload and prints its metrics, one per line.
func runWorkload(name string, cfg config) (summary, error) {
	fmt.Fprintf(cfg.log, "== %s (seed %d, %ds nominal, trace %v)\n", name, cfg.seed, cfg.seconds, cfg.trace)
	o, err := workloads[name](cfg)
	if err != nil {
		return summary{}, err
	}
	if o.attempted < 1 {
		return summary{}, errors.New("no op was attempted")
	}
	s := summary{
		Correct:   o.wrong == 0,
		Attempted: o.attempted,
		Failed:    o.failed + o.wrong,
		Metrics:   map[string]metric{},
	}
	errRatio := float64(s.Failed) / float64(o.attempted)
	tail, tailPct, tailN := tailLatency(o.latencies)
	fmt.Fprintf(cfg.log, "error_ratio = %.6g 1 (failed %d + wrong %d of %d attempted)\n", errRatio, o.failed, o.wrong, o.attempted)
	fmt.Fprintf(cfg.log, "op_tail_ms is p%.4g of %d samples\n", tailPct, tailN)
	if cfg.trace {
		s.Metrics = o.layers
	} else {
		s.Metrics["setup_s"] = metric{median(o.setup).Seconds(), "s"}
		s.Metrics["ops_per_s"] = metric{o.opsPerS, "1/s"}
		s.Metrics["op_p50_ms"] = metric{ms(median(o.latencies)), "ms"}
		s.Metrics["op_tail_ms"] = metric{ms(tail), "ms"}
		s.Metrics["peak_rss_mb"] = metric{quantile(o.rssMB, 0.9), "MB"}
	}
	keys := make([]string, 0, len(s.Metrics))
	for k := range s.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(cfg.log, "%s = %.6g %s\n", k, s.Metrics[k].Value, s.Metrics[k].Unit)
	}
	return s, nil
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for an empty slice.
func median[T time.Duration | float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLatency returns the highest percentile of ds that has at least ten
// samples beyond it, with that percentile and the sample count. With
// fewer than eleven samples no percentile qualifies and the maximum is
// returned as p100.
func tailLatency(ds []time.Duration) (d time.Duration, pct float64, n int) {
	n = len(ds)
	if n == 0 {
		return 0, 0, 0
	}
	s := sorted(ds)
	if n < 11 {
		return s[n-1], 100, n
	}
	return s[n-11], 100 * float64(n-10) / float64(n), n
}

// quantile returns the nearest-rank q-quantile of xs, or 0 for an empty
// slice.
func quantile[T time.Duration | float64](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[max(0, int(math.Ceil(q*float64(len(s))))-1)]
}

func sorted[T cmp.Ordered](xs []T) []T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// rssPoll is how often an rssSampler reads the resident set.
const rssPoll = 5 * time.Millisecond

// rssSampler polls the resident set of one process, keeping every sample.
type rssSampler struct {
	path string
	mu   sync.Mutex
	all  []float64 // MB
	err  error
	stop chan struct{}
	done chan struct{}
}

// sampleRSS starts polling /proc/<pid>/statm; close stops it.
func sampleRSS(pid string) *rssSampler {
	s := &rssSampler{path: "/proc/" + pid + "/statm", stop: make(chan struct{}), done: make(chan struct{})}
	s.read()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssPoll)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.read()
			}
		}
	}()
	return s
}

// read appends the current resident set to the samples.
func (s *rssSampler) read() {
	data, err := os.ReadFile(s.path)
	var pages float64
	if err == nil {
		f := strings.Fields(string(data))
		if len(f) < 2 {
			err = fmt.Errorf("%s: unexpected %q", s.path, data)
		} else {
			pages, err = strconv.ParseFloat(f[1], 64)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.err == nil {
			s.err = fmt.Errorf("reading resident set: %w", err)
		}
		return
	}
	s.all = append(s.all, pages*float64(os.Getpagesize())/(1<<20))
}

// close stops the poller, waits for it to exit and returns every sample.
func (s *rssSampler) close() ([]float64, error) {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.all, s.err
}
