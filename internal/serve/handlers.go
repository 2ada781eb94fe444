package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"guardedop/internal/core"
	"guardedop/internal/mdcd"
	"guardedop/internal/obs"
	"guardedop/internal/robust"
	"guardedop/internal/uncertainty"
)

// paramsJSON echoes the fully resolved parameter set back in responses,
// so a client querying with defaults sees what was actually solved.
type paramsJSON struct {
	Theta    float64 `json:"theta"`
	Lambda   float64 `json:"lambda"`
	MuNew    float64 `json:"mu_new"`
	MuOld    float64 `json:"mu_old"`
	Coverage float64 `json:"coverage"`
	PExt     float64 `json:"p_ext"`
	Alpha    float64 `json:"alpha"`
	Beta     float64 `json:"beta"`
}

func paramsOut(p mdcd.Params) paramsJSON {
	return paramsJSON{
		Theta: p.Theta, Lambda: p.Lambda, MuNew: p.MuNew, MuOld: p.MuOld,
		Coverage: p.Coverage, PExt: p.PExt, Alpha: p.Alpha, Beta: p.Beta,
	}
}

// pointJSON is one evaluated duration.
type pointJSON struct {
	Phi   float64 `json:"phi"`
	Y     float64 `json:"y"`
	EWPhi float64 `json:"ew_phi"`
	YS1   float64 `json:"ys1"`
	YS2   float64 `json:"ys2"`
	Gamma float64 `json:"gamma"`
	PS1   float64 `json:"ps1"`
}

func pointOut(r core.Result) pointJSON {
	return pointJSON{Phi: r.Phi, Y: r.Y, EWPhi: r.EWPhi, YS1: r.YS1, YS2: r.YS2, Gamma: r.Gamma, PS1: r.PS1}
}

// curveResponse is the /v1/curve document. Degraded marks a sweep cut
// short by its deadline: Results then holds the completed prefix (every
// point solved before the deadline) rather than the whole grid.
type curveResponse struct {
	Params          paramsJSON  `json:"params"`
	PointsRequested int         `json:"points_requested"`
	PointsReturned  int         `json:"points_returned"`
	Results         []pointJSON `json:"results"`
	Degraded        bool        `json:"degraded"`
	FailedPoints    int         `json:"failed_points,omitempty"`
	Solves          int64       `json:"solves,omitempty"`
}

// optimizeResponse is the /v1/optimize document.
type optimizeResponse struct {
	Params     paramsJSON `json:"params"`
	GridPoints int        `json:"grid_points"`
	Best       pointJSON  `json:"best"`
	Degraded   bool       `json:"degraded"`
}

// propagateResponse is the /v1/propagate document. Degraded marks a
// propagation standing on fewer draws than requested (skipped degenerate
// draws); the decision quantities are still valid over the survivors.
type propagateResponse struct {
	Params           paramsJSON         `json:"params"`
	Posterior        map[string]float64 `json:"posterior"`
	SamplesRequested int                `json:"samples_requested"`
	SamplesUsed      int                `json:"samples_used"`
	RobustPhi        float64            `json:"robust_phi"`
	RobustEY         float64            `json:"robust_ey"`
	PlugInPhi        float64            `json:"plugin_phi"`
	PhiStarQuantiles map[string]float64 `json:"phi_star_quantiles"`
	Degraded         bool               `json:"degraded"`
}

// badRequest renders a malformed-request failure as a plain 400 (client
// errors never enter the robust taxonomy).
func (s *Server) badRequest(w http.ResponseWriter, r *http.Request, err error) {
	s.writeJSON(w, r, http.StatusBadRequest,
		errEnvelope{Error: err.Error(), Class: "bad-request", Status: http.StatusBadRequest})
}

// analyzer returns the cached analyzer for p, building (and caching) it
// on a miss. Construction runs the steady-state solves, so reuse is what
// keeps repeat queries cheap; concurrent misses for the same parameters
// may build twice, harmlessly — per-request deduplication is the
// flight's job, and analyzers are immutable so last-Put-wins is safe.
func (s *Server) analyzer(ctx context.Context, p mdcd.Params) (*core.Analyzer, error) {
	key := paramsKey(p)
	if a, ok := s.analyzers.Get(ctx, key); ok {
		return a, nil
	}
	a, err := core.NewAnalyzerWithOptions(p, core.Options{Parametric: s.cfg.parametricMode()})
	if err != nil {
		return nil, err
	}
	s.analyzers.Put(ctx, key, a)
	return a, nil
}

// jsonResult marshals a success document into an apiResult.
func jsonResult(v any, degraded, cacheable bool) *apiResult {
	body, err := json.Marshal(v)
	if err != nil {
		return errorResult(fmt.Errorf("encoding response: %w", err))
	}
	return &apiResult{status: http.StatusOK, body: body, degraded: degraded, cacheable: cacheable}
}

// handleCurve serves the Y(φ) curve of one parameter set.
func (s *Server) handleCurve(w http.ResponseWriter, r *http.Request) {
	var req CurveRequest
	if err := decodeRequest(r, &req); err != nil {
		s.badRequest(w, r, err)
		return
	}
	p, err := req.Params.Params()
	if err != nil {
		s.badRequest(w, r, err)
		return
	}
	points := req.Points
	if points == 0 {
		points = 20
	}
	if points < 1 || points > maxCurvePoints {
		s.badRequest(w, r, fmt.Errorf("points %d out of range [1, %d]", points, maxCurvePoints))
		return
	}
	key := requestKey("curve", p, []int64{int64(points)})
	s.serveAPI(w, r, key, s.budget(req.TimeoutMS), func(ctx context.Context) *apiResult {
		return s.computeCurve(ctx, p, points)
	})
}

func (s *Server) computeCurve(ctx context.Context, p mdcd.Params, points int) *apiResult {
	a, err := s.analyzer(ctx, p)
	if err != nil {
		return errorResult(err)
	}
	resp, err := s.sweepCurve(ctx, a, p, core.SweepGrid(p.Theta, points))
	if err != nil {
		return errorResult(err)
	}
	return jsonResult(resp, resp.Degraded, !resp.Degraded)
}

// sweepCurve runs a's curve engine over grid and folds the outcome into
// a curve response for parameters p. The sweep runs under its own
// counter scope, so the response's solves field counts exactly this
// sweep's solver passes. A deadline mid-sweep degrades to the completed
// prefix instead of failing the request; every other failure is
// returned for the taxonomy to map.
func (s *Server) sweepCurve(ctx context.Context, a *core.Analyzer, p mdcd.Params, grid []float64) (curveResponse, error) {
	ctx, scope := obs.WithScope(ctx)
	pr, err := a.CurvePartialWorkers(ctx, grid, s.cfg.Workers)
	degraded := err != nil
	if degraded && (!errors.Is(err, robust.ErrCanceled) || pr == nil || pr.Report.Succeeded() == 0) {
		return curveResponse{}, err
	}
	resp := curveResponse{
		Params:          paramsOut(p),
		PointsRequested: len(grid),
		Degraded:        degraded,
		FailedPoints:    pr.Report.Failed(),
		Solves:          scope.Counter(obs.CtrSolvePasses),
	}
	for i, ok := range pr.OK {
		if ok {
			resp.Results = append(resp.Results, pointOut(pr.Results[i]))
		}
	}
	resp.PointsReturned = len(resp.Results)
	return resp, nil
}

// handleOptimize serves the continuously refined optimal duration φ*.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	if err := decodeRequest(r, &req); err != nil {
		s.badRequest(w, r, err)
		return
	}
	p, err := req.Params.Params()
	if err != nil {
		s.badRequest(w, r, err)
		return
	}
	gridPoints := req.GridPoints
	if gridPoints == 0 {
		gridPoints = 20
	}
	if gridPoints < 2 || gridPoints > maxCurvePoints {
		s.badRequest(w, r, fmt.Errorf("grid_points %d out of range [2, %d]", gridPoints, maxCurvePoints))
		return
	}
	key := requestKey("optimize", p, []int64{int64(gridPoints)})
	s.serveAPI(w, r, key, s.budget(req.TimeoutMS), func(ctx context.Context) *apiResult {
		return s.computeOptimize(ctx, p, gridPoints)
	})
}

func (s *Server) computeOptimize(ctx context.Context, p mdcd.Params, gridPoints int) *apiResult {
	a, err := s.analyzer(ctx, p)
	if err != nil {
		return errorResult(err)
	}
	best, err := a.OptimizePhiContext(ctx, core.OptimizeOptions{GridPoints: gridPoints, Workers: s.cfg.Workers})
	if err != nil {
		// The refined optimum has no meaningful prefix — a canceled search
		// fails the request (504) rather than degrading.
		return errorResult(err)
	}
	resp := optimizeResponse{Params: paramsOut(p), GridPoints: gridPoints, Best: pointOut(best)}
	return jsonResult(resp, false, true)
}

// handlePropagate serves posterior uncertainty propagation of µ_new.
func (s *Server) handlePropagate(w http.ResponseWriter, r *http.Request) {
	var req PropagateRequest
	if err := decodeRequest(r, &req); err != nil {
		s.badRequest(w, r, err)
		return
	}
	p, err := req.Params.Params()
	if err != nil {
		s.badRequest(w, r, err)
		return
	}
	g := gammaSpec{shape: req.Shape, rate: req.Rate}
	switch {
	case g.shape == 0 && g.rate == 0:
		if p.MuNew <= 0 {
			s.badRequest(w, r, fmt.Errorf("default posterior needs mu_new > 0; supply shape and rate explicitly"))
			return
		}
		g = gammaSpec{shape: 2, rate: 2 / p.MuNew}
	case g.shape <= 0 || g.rate <= 0:
		s.badRequest(w, r, fmt.Errorf("posterior needs both shape (%g) and rate (%g) positive", g.shape, g.rate))
		return
	}
	samples := req.Samples
	if samples == 0 {
		samples = 50
	}
	if samples < 2 || samples > maxPropagateSamples {
		s.badRequest(w, r, fmt.Errorf("samples %d out of range [2, %d]", samples, maxPropagateSamples))
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	gridPoints := req.GridPoints
	if gridPoints == 0 {
		gridPoints = 20
	}
	if gridPoints < 2 || gridPoints > maxCurvePoints {
		s.badRequest(w, r, fmt.Errorf("grid_points %d out of range [2, %d]", gridPoints, maxCurvePoints))
		return
	}
	key := propagateKey(p, g, samples, seed, gridPoints)
	s.serveAPI(w, r, key, s.budget(req.TimeoutMS), func(ctx context.Context) *apiResult {
		return s.computePropagate(ctx, p, g, samples, seed, gridPoints)
	})
}

func (s *Server) computePropagate(ctx context.Context, p mdcd.Params, g gammaSpec, samples int, seed int64, gridPoints int) *apiResult {
	prop, err := uncertainty.PropagateContext(ctx, p,
		uncertainty.Gamma{Shape: g.shape, Rate: g.rate},
		uncertainty.PropagateOptions{
			Samples: samples, Seed: seed, GridPoints: gridPoints,
			Workers: s.cfg.Workers, Parametric: s.cfg.parametricMode(),
		})
	if err != nil {
		return errorResult(err)
	}
	degraded := prop.SamplesUsed < prop.SamplesRequested
	resp := propagateResponse{
		Params:           paramsOut(p),
		Posterior:        map[string]float64{"shape": g.shape, "rate": g.rate},
		SamplesRequested: prop.SamplesRequested,
		SamplesUsed:      prop.SamplesUsed,
		RobustPhi:        prop.RobustPhi,
		RobustEY:         prop.RobustEY,
		PlugInPhi:        prop.PlugInPhi,
		PhiStarQuantiles: map[string]float64{
			"p10": quantileSorted(prop.PhiStars, 0.10),
			"p50": quantileSorted(prop.PhiStars, 0.50),
			"p90": quantileSorted(prop.PhiStars, 0.90),
		},
		Degraded: degraded,
	}
	return jsonResult(resp, degraded, !degraded)
}

// quantileSorted reads the q-quantile off an ascending-sorted sample by
// nearest-rank; empty input yields NaN-free zero (callers always pass
// the survivors of a propagation that succeeded, hence non-empty).
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
