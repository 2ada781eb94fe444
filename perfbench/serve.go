package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"guardedop/internal/core"
	"guardedop/internal/mdcd"
	"guardedop/internal/obs"
	"guardedop/internal/uncertainty"
)

// The serve workload's load shape. The rate and the latency limit are
// fixed constants: an open loop measures the system at a stated load, and
// changing either changes what the metrics mean.
const (
	// serveRate is the offered load in requests per second, calibrated so
	// the uncontended daemon keeps up with room to spare.
	serveRate = 30.0
	// serveLimit is the latency limit a good answer must meet: about 3×
	// the slowest request uncontended, a 100-interval curve of an
	// out-of-domain set on the numeric engine (70–150 ms, depending on
	// how busy the host is).
	serveLimit = 400 * time.Millisecond
	// servePalette is the number of distinct parameter sets, about 4× the
	// daemon's default analyzer cache (64), so analyzer builds keep
	// happening. The Zipf exponent puts about 80% of requests on answers
	// already in the response cache, so the median request is a cache hit
	// well inside that class, and the tail holds the misses.
	servePalette = 256
	serveZipfS   = 2.0
	// Every serveOutOfDomainEvery-th request (10%) is a 100-interval
	// curve of a set of its own just outside the parametric layer's
	// domain: a cache miss the numeric engine answers, the slowest request
	// the daemon serves. Every seed sends the same number of them, so the
	// tail is their latency rather than a count of how many one seed's
	// Zipf draws happened to send, and there are more of them in a round
	// than the ten samples the tail percentile leaves beyond it, so the
	// tail sits inside their class rather than on its edge.
	serveOutOfDomainEvery  = 10
	serveOutOfDomainPoints = 100
	// serveConns bounds the load generator's connections and workers (the
	// machine's core count when this benchmark was calibrated).
	serveConns = 2
	// serveRounds is how many times an untraced run sends the schedule,
	// each time to a freshly started daemon warmed up alike; a request's
	// latency is the fastest of its rounds. Contention from other tenants
	// of a shared host only ever adds time, and much of it comes in bursts
	// shorter than a round, while a change to the program moves every
	// round alike. The schedule spans the nominal run length divided by
	// the rounds.
	serveRounds = 3
	// serveStarts is how many times set-up starts the daemon; setup_s is
	// the median start-to-ready time. The last starts serve the rounds.
	serveStarts = 9
	// serveClientTimeout cuts off a request the daemon never answers.
	serveClientTimeout = 10 * time.Second
)

// serveReq is one scheduled request.
type serveReq struct {
	due    time.Duration
	route  string // curve, optimize or propagate
	set    int    // palette index
	points int    // curve points or grid points
	seed   int64  // propagate draw seed
	body   []byte
}

// serveRes is what the load generator observed for one request.
type serveRes struct {
	status  int
	latency time.Duration // from the due time to the end of the response
	service time.Duration // from the send to the end of the response
	lag     time.Duration // how late the generator handed the request off
	// traceCost is the time the traced pass spent on the client span.
	traceCost time.Duration
	cacheHit  bool
	body      []byte
	err       error
}

// wire types of the gsuserve API, as far as the benchmark reads them.
type (
	wireParams struct {
		Theta    float64 `json:"theta"`
		Lambda   float64 `json:"lambda"`
		MuNew    float64 `json:"mu_new"`
		MuOld    float64 `json:"mu_old"`
		Coverage float64 `json:"coverage"`
		PExt     float64 `json:"p_ext"`
		Alpha    float64 `json:"alpha"`
		Beta     float64 `json:"beta"`
	}
	wirePoint struct {
		Phi float64 `json:"phi"`
		Y   float64 `json:"y"`
	}
	wireCurve struct {
		PointsRequested int         `json:"points_requested"`
		PointsReturned  int         `json:"points_returned"`
		Results         []wirePoint `json:"results"`
		Degraded        bool        `json:"degraded"`
	}
	wireOptimize struct {
		Best wirePoint `json:"best"`
	}
	wirePropagate struct {
		SamplesRequested int     `json:"samples_requested"`
		SamplesUsed      int     `json:"samples_used"`
		RobustPhi        float64 `json:"robust_phi"`
		RobustEY         float64 `json:"robust_ey"`
	}
)

func toWire(p mdcd.Params) wireParams {
	return wireParams{p.Theta, p.Lambda, p.MuNew, p.MuOld, p.Coverage, p.PExt, p.Alpha, p.Beta}
}

// Small propagations on the serving path: a few posterior draws over a
// coarse grid.
const (
	servePropagateSamples = 2
	servePropagateGrid    = 10
)

// serveWarmup is how many requests prime the daemon's caches, closed
// loop and untimed, before the timed schedule starts: the benchmark
// measures a daemon in service, not one answering its first requests.
const serveWarmup = 200

// serveSchedule generates the palette, the warm-up requests and the timed
// open-loop schedule of the given length from the seed. Every
// serveOutOfDomainEvery-th request is an out-of-domain curve on a set of
// its own, appended to the palette; the others are ~70% curve (20, 50 or
// 100 points), ~20% optimize and ~10% propagate on Zipf-drawn in-domain
// sets. Requests are due at a constant rate, serveRate, as independent
// users with a fixed request budget would send them; the seed varies what
// is sent, not when.
func serveSchedule(seed int64, length time.Duration) (palette []mdcd.Params, warmup, sched []serveReq, err error) {
	rng := rand.New(rand.NewSource(seed))
	palette = make([]mdcd.Params, servePalette)
	for i := range palette {
		// θ sits at fixed Zipf ranks, so every seed sends the same share
		// of requests to each θ.
		theta := 10000.0
		if i%2 == 1 {
			theta = 5000
		}
		palette[i] = drawParams(rng, theta)
	}
	zipf := rand.NewZipf(rng, serveZipfS, 1, servePalette-1)
	gen := func(n int) ([]serveReq, error) {
		reqs := make([]serveReq, n)
		for i := range reqs {
			r := serveReq{due: time.Duration(float64(i) * float64(time.Second) / serveRate), set: int(zipf.Uint64())}
			var body any
			switch u := rng.Float64(); {
			case i%serveOutOfDomainEvery == serveOutOfDomainEvery-1:
				// Just past the λ bound and at the longer θ, where the
				// numeric engine answers within the latency limit.
				p := drawParams(rng, 10000)
				p.Lambda = 1.05e5
				palette = append(palette, p)
				r.set, r.route, r.points = len(palette)-1, "curve", serveOutOfDomainPoints
				body = map[string]any{"params": toWire(p), "points": r.points}
			case u < 0.7:
				r.route, r.points = "curve", []int{20, 50, 100}[rng.Intn(3)]
				body = map[string]any{"params": toWire(palette[r.set]), "points": r.points}
			case u < 0.9:
				r.route, r.points = "optimize", 20
				body = map[string]any{"params": toWire(palette[r.set]), "grid_points": r.points}
			default:
				r.route, r.points, r.seed = "propagate", servePropagateGrid, 1+rng.Int63n(2)
				body = map[string]any{"params": toWire(palette[r.set]), "samples": servePropagateSamples,
					"grid_points": r.points, "seed": r.seed}
			}
			var err error
			if r.body, err = json.Marshal(body); err != nil {
				return nil, fmt.Errorf("encoding request: %w", err)
			}
			reqs[i] = r
		}
		return reqs, nil
	}
	if warmup, err = gen(serveWarmup); err != nil {
		return nil, nil, nil, err
	}
	if sched, err = gen(int(math.Round(serveRate * length.Seconds()))); err != nil {
		return nil, nil, nil, err
	}
	return palette, warmup, sched, nil
}

// daemon is one running gsuserve child.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File // the daemon's stderr (its access log), nil for the null device
}

// startDaemon execs gsuserve at its default flags on a free loopback
// port and returns once /readyz answers 200. The daemon's log goes to a
// file in outDir, not through a pipe the load generator would have to
// drain while it measures.
func startDaemon(bin, outDir string, client *http.Client) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("serve workload needs -serve-bin")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	d := &daemon{cmd: exec.Command(bin, "-addr", addr), addr: addr}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, fmt.Errorf("creating %s: %w", outDir, err)
		}
		if d.log, err = os.Create(filepath.Join(outDir, "gsuserve.log")); err != nil {
			return nil, fmt.Errorf("creating the daemon log: %w", err)
		}
		d.cmd.Stderr = d.log
	}
	if err := d.cmd.Start(); err != nil {
		d.closeLog()
		return nil, fmt.Errorf("starting gsuserve: %w", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get("http://" + addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			_ = d.stop()
			return nil, errors.New("gsuserve never became ready")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	defer d.closeLog()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		_ = d.cmd.Process.Kill()
	}
	err := d.cmd.Wait()
	// gsuserve installs its SIGTERM handler only after it starts serving,
	// so a daemon stopped right after it became ready can end by the
	// signal's default action instead of draining. It has still ended.
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	if err != nil {
		return fmt.Errorf("gsuserve exit: %w", err)
	}
	return nil
}

// closeLog closes the daemon's log file, if any; the daemon wrote it and
// nothing reads it back, so a close error loses nothing the run needs.
func (d *daemon) closeLog() {
	if d.log != nil {
		_ = d.log.Close()
	}
}

func runServe(cfg config) (*outcome, error) {
	// The load generator needs little CPU; one P keeps it off the
	// daemon's second core.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	client := &http.Client{
		Timeout: serveClientTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		},
	}
	defer client.CloseIdleConnections()
	rounds := serveRounds
	if cfg.trace {
		rounds = 1
	}
	length := time.Duration(cfg.seconds) * time.Second / serveRounds
	o := &outcome{}
	var palette []mdcd.Params
	var sched []serveReq
	var runs [][]serveRes
	var elapsed time.Duration
	var scraped map[string]float64
	for i := 0; i < serveStarts; i++ {
		start := time.Now()
		var warmup []serveReq
		var err error
		if palette, warmup, sched, err = serveSchedule(cfg.seed, length); err != nil {
			return nil, err
		}
		d, err := startDaemon(cfg.serveBin, cfg.outDir, client)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start))
		if i >= serveStarts-rounds {
			var res []serveRes
			var took time.Duration
			var rss []float64
			res, took, rss, scraped, err = serveRound(cfg, client, d, warmup, sched)
			runs = append(runs, res)
			elapsed += took
			o.rssMB = append(o.rssMB, rss...)
		}
		if stopErr := d.stop(); err == nil {
			err = stopErr
		}
		client.CloseIdleConnections()
		if err != nil {
			return nil, err
		}
	}
	o.attempted = rounds * len(sched)
	o.latencies = make([]time.Duration, len(sched))
	good := 0
	for r, res := range runs {
		wrongAt := checkServe(cfg, palette, sched, res)
		for i, x := range res {
			if r == 0 || x.latency < o.latencies[i] {
				o.latencies[i] = x.latency
			}
			switch {
			case wrongAt[i]:
				o.wrong++
			case x.err != nil || x.status != http.StatusOK || x.latency > serveLimit || degraded(x.body):
				fmt.Fprintf(cfg.log, "round %d request %d (%s, %d points) failed: status %d, %.1f ms from due (%.1f ms service), err %v\n",
					r, i, sched[i].route, sched[i].points, x.status, ms(x.latency), ms(x.service), x.err)
				o.failed++
			default:
				good++
			}
		}
	}
	o.opsPerS = float64(good) / elapsed.Seconds()
	if cfg.trace {
		o.layers = layerMetrics(serveLayers(sched, runs[0], scraped))
	}
	return o, nil
}

// serveRound warms the daemon up, sends it the schedule and returns what
// the load generator observed, how long the schedule took to the last
// response, the daemon's resident-set samples over it and, on the
// traced pass, its /metrics.
func serveRound(cfg config, client *http.Client, d *daemon, warmup, sched []serveReq) ([]serveRes, time.Duration, []float64, map[string]float64, error) {
	if err := warm(client, d.addr, warmup); err != nil {
		return nil, 0, nil, nil, err
	}
	rss := sampleRSS(strconv.Itoa(d.cmd.Process.Pid))
	res, elapsed := openLoop(cfg, client, d.addr, sched)
	rssMB, err := rss.close()
	if err != nil {
		return nil, 0, nil, nil, err
	}
	var scraped map[string]float64
	if cfg.trace {
		if scraped, err = scrapeMetrics(client, d.addr); err != nil {
			return nil, 0, nil, nil, err
		}
	}
	return res, elapsed, rssMB, scraped, nil
}

// warm sends the warm-up requests closed loop on serveConns connections.
func warm(client *http.Client, addr string, reqs []serveReq) error {
	var wg sync.WaitGroup
	errs := make([]error, serveConns)
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reqs); i += serveConns {
				if r := send(config{}, client, addr, reqs[i], i); r.err != nil {
					errs[w] = fmt.Errorf("warm-up request: %w", r.err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// openLoop sends the schedule: a dispatcher hands each request to one of
// serveConns workers at its due time, whether or not earlier requests
// have been answered. When every worker is busy the hand-off waits, and
// that wait counts in the request's latency, which runs from the due
// time. Only the dispatcher's own timer oversleep (it wakes up to a
// millisecond late) is taken off, since it is the generator's lateness,
// not the daemon's. The elapsed time runs to the last response.
func openLoop(cfg config, client *http.Client, addr string, sched []serveReq) ([]serveRes, time.Duration) {
	res := make([]serveRes, len(sched))
	lags := make([]time.Duration, len(sched))
	oversleep := make([]time.Duration, len(sched))
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res[i] = send(cfg, client, addr, sched[i], i)
				res[i].latency = time.Since(start) - sched[i].due - oversleep[i]
			}
		}()
	}
	for i, r := range sched {
		if wait := r.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
			oversleep[i] = max(0, time.Since(start)-r.due)
		}
		jobs <- i
		lags[i] = time.Since(start) - r.due
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)
	for i := range res {
		res[i].lag = lags[i]
	}
	return res, elapsed
}

// send issues one request. In the traced pass it runs inside a client
// span; the daemon traces itself at its default flags either way, so the
// client span is all the tracing the pass adds, and its bookkeeping time
// is recorded to give the tracing overhead.
func send(cfg config, client *http.Client, addr string, r serveReq, i int) serveRes {
	ctx := context.Background()
	out := serveRes{}
	var sp *obs.Span
	if cfg.trace {
		t := time.Now()
		ctx, sp = obs.StartSpan(obs.WithTracer(ctx, obs.NewTracer()), "serve.http."+r.route)
		sp.SetInt("op", int64(i))
		out.traceCost = time.Since(t)
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/v1/"+r.route, bytes.NewReader(r.body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
		var resp *http.Response
		if resp, err = client.Do(req); err == nil {
			out.status = resp.StatusCode
			out.cacheHit = resp.Header.Get("X-Cache") == "hit"
			out.body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	}
	out.err = err
	out.service = time.Since(t0)
	t := time.Now()
	sp.End()
	out.traceCost += time.Since(t)
	return out
}

// degraded reports whether a response body carries "degraded": true.
func degraded(body []byte) bool {
	var d struct{ Degraded bool }
	return json.Unmarshal(body, &d) == nil && d.Degraded
}

// checkServe validates every 200 response and recomputes a seeded sample
// of distinct answers through direct library calls with the parametric
// layer off: curve points and optima through the point-wise path and,
// where that disagrees, the numeric curve engine or optimizer called
// directly; propagations through the library propagation. The daemon
// answers in-domain sets from the closed forms, so those are checked
// against independent numeric paths; out-of-domain answers come from the
// numeric engine, so the direct call checks the serving stack (caches,
// coalescing, JSON) around it. It returns the indices of wrong answers.
func checkServe(cfg config, palette []mdcd.Params, sched []serveReq, res []serveRes) map[int]bool {
	wrong := map[int]bool{}
	bad := func(i int, format string, args ...any) {
		wrong[i] = true
		mismatch(cfg, "serve request %d (%s): "+format, append([]any{i, sched[i].route}, args...)...)
	}
	// At most this many distinct answers per route are recomputed.
	budget := map[string]int{"curve": 6, "optimize": 3, "propagate": 1}
	seen := map[string]bool{}
	rng := checkSeed(cfg.seed)
	for _, i := range rng.Perm(len(sched)) {
		r, out := sched[i], res[i]
		if out.err != nil || out.status != http.StatusOK {
			continue
		}
		p := palette[r.set]
		key := string(r.body)
		check := budget[r.route] > 0 && !seen[key]
		if check {
			seen[key] = true
			budget[r.route]--
		}
		switch r.route {
		case "curve":
			var c wireCurve
			if err := json.Unmarshal(out.body, &c); err != nil {
				bad(i, "decoding: %v", err)
				continue
			}
			if c.PointsRequested != r.points+1 || c.PointsReturned != len(c.Results) || c.PointsReturned > c.PointsRequested ||
				(!c.Degraded && c.PointsReturned != r.points+1) || len(c.Results) == 0 || c.Results[0].Phi != 0 || !near(c.Results[0].Y, 1) {
				bad(i, "malformed curve (%d of %d points)", c.PointsReturned, c.PointsRequested)
				continue
			}
			if !check || c.Degraded {
				continue // a degraded answer already counts as failed
			}
			grid := core.SweepGrid(p.Theta, r.points)
			if !slices.Equal(phis(c.Results), grid[:len(c.Results)]) {
				bad(i, "curve grid differs from SweepGrid(%g, %d)", p.Theta, r.points)
				continue
			}
			// Four points go against the point-wise path, and against the
			// numeric curve engine called directly where the two disagree.
			ref := &refs{p: p}
			var lib []core.Result
			var libErr error
			engine := func(k int) refPath {
				return refPath{"the library curve engine", func() (float64, error) {
					if lib == nil && libErr == nil {
						lib, libErr = libraryCurve(p, grid)
					}
					if libErr != nil {
						return math.NaN(), libErr
					}
					return lib[k].Y, nil
				}}
			}
			for _, k := range []int{1, len(c.Results) - 1, 1 + rng.Intn(len(c.Results)-1)} {
				pt := c.Results[k]
				label := fmt.Sprintf("serve request %d (curve) Y(%g)", i, pt.Phi)
				if verify(cfg, label, pt.Y, ref.pointwise(pt.Phi), engine(k)) > 0 {
					wrong[i] = true
					break
				}
			}
		case "optimize":
			var b wireOptimize
			if err := json.Unmarshal(out.body, &b); err != nil || math.IsNaN(b.Best.Y) {
				bad(i, "decoding: %v", err)
				continue
			}
			if !check {
				continue
			}
			ref := &refs{p: p}
			optimizer := refPath{"the library optimizer", func() (float64, error) {
				a, err := core.NewAnalyzerWithOptions(p, core.Options{})
				if err != nil {
					return math.NaN(), err
				}
				best, err := a.OptimizePhiContext(context.Background(), core.OptimizeOptions{GridPoints: r.points})
				return best.Y, err
			}}
			label := fmt.Sprintf("serve request %d (optimize) Y*=Y(%g)", i, b.Best.Phi)
			if verify(cfg, label, b.Best.Y, ref.pointwise(b.Best.Phi), optimizer) > 0 {
				wrong[i] = true
			}
		case "propagate":
			var pr wirePropagate
			if err := json.Unmarshal(out.body, &pr); err != nil || pr.SamplesUsed > pr.SamplesRequested {
				bad(i, "decoding: %v", err)
				continue
			}
			if !check {
				continue
			}
			lib, err := uncertainty.PropagateContext(context.Background(), p,
				uncertainty.Gamma{Shape: 2, Rate: 2 / p.MuNew},
				uncertainty.PropagateOptions{Samples: servePropagateSamples, Seed: r.seed, GridPoints: r.points})
			if err != nil {
				bad(i, "library propagation: %v", err)
				continue
			}
			// The robust φ is a grid argmax of E[Y]: it may differ only
			// where two grid points tie to within the tolerance.
			if !near(lib.RobustEY, pr.RobustEY) {
				bad(i, "robust φ=%g E[Y]=%.17g, library φ=%g E[Y]=%.17g", pr.RobustPhi, pr.RobustEY, lib.RobustPhi, lib.RobustEY)
			}
		}
	}
	return wrong
}

// phis returns the φ of each point.
func phis(pts []wirePoint) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.Phi
	}
	return out
}

// libraryCurve computes the curve through a direct library call on the
// numeric engine.
func libraryCurve(p mdcd.Params, grid []float64) ([]core.Result, error) {
	a, err := core.NewAnalyzerWithOptions(p, core.Options{})
	if err != nil {
		return nil, err
	}
	return curve(context.Background(), a, grid)
}

// scrapeMetrics reads the daemon's /metrics exposition into a map keyed
// by the sample name with its labels, e.g.
// gsu_stage_nanos_total{stage="ctmc.expm"}.
func scrapeMetrics(client *http.Client, addr string) (map[string]float64, error) {
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	return out, nil
}

// serveLayers computes the serve workload's per-layer metrics from the
// client's observations and the daemon's own counters and stage totals.
// Server-side stage times are inclusive totals per request.
func serveLayers(sched []serveReq, res []serveRes, m map[string]float64) map[string]float64 {
	n := float64(len(sched))
	v := map[string]float64{}
	byRoute := map[string][]time.Duration{}
	var service, traceCost time.Duration
	var hits, shed, degr float64
	lags := make([]time.Duration, len(res))
	for i, r := range res {
		lags[i] = r.lag
		if r.err != nil {
			continue
		}
		byRoute[sched[i].route] = append(byRoute[sched[i].route], r.service)
		service += r.service
		traceCost += r.traceCost
		if r.cacheHit {
			hits++
		}
		if r.status == http.StatusTooManyRequests {
			shed++
		}
		if degraded(r.body) {
			degr++
		}
	}
	stage := func(name string) float64 { return m[`gsu_stage_nanos_total{stage="`+name+`"}`] / 1e6 / n }
	v["serve.requests"] = m["gsu_serve_requests_total"]
	v["serve.curve_p50_ms"] = ms(median(byRoute["curve"]))
	v["serve.optimize_p50_ms"] = ms(median(byRoute["optimize"]))
	v["serve.propagate_p50_ms"] = ms(median(byRoute["propagate"]))
	v["serve.response_cache.hit_ratio"] = hits / n
	ch, cm := m["gsu_serve_cache_hits_total"], m["gsu_serve_cache_misses_total"]
	v["serve.cache.hit_ratio"] = ratio(ch, ch+cm)
	v["serve.cache.evictions"] = m["gsu_serve_cache_evictions_total"]
	v["serve.absorbed_ratio"] = (hits + m["gsu_serve_coalesced_total"]) / n
	v["serve.shed_ratio"] = shed / n
	v["serve.degraded_ratio"] = degr / n
	v["loadgen.lag_p99_ms"] = ms(quantile(lags, 0.99))
	v["bench.trace_overhead_ratio"] = ratio(float64(service), float64(service+traceCost))
	ph, pf := m["gsu_parametric_hits_total"], m["gsu_parametric_fallbacks_total"]
	v["parametric.hits"], v["parametric.fallbacks"], v["parametric.hit_ratio"] = ph, pf, ratio(ph, ph+pf)
	v["core.fallback_points"] = m["gsu_core_fallback_points_total"]
	v["ctmc.solve_passes"] = m["gsu_ctmc_solve_passes_total"]
	v["core.curve_ms"] = stage("core.curve")
	v["core.optimize_ms"] = stage("core.optimize")
	v["mdcd.series_ms"] = stage("mdcd.RMGd.measures_series") + stage("mdcd.RMNdPair.no_failure_series") + stage("mdcd.RMNd.no_failure_series")
	v["ctmc.expm_ms"] = stage("ctmc.expm")
	v["ctmc.vanloan_ms"] = stage("ctmc.expm_vanloan")
	v["ctmc.uniformize_ms"] = stage("ctmc.uniformize")
	cch, ccm := m["gsu_ctmc_cache_hits_total"], m["gsu_ctmc_cache_misses_total"]
	v["ctmc.cache.hit_ratio"] = ratio(cch, cch+ccm)
	return v
}
