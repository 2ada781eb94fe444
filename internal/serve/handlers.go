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
	Params          Params      `json:"params"`
	PointsRequested int         `json:"points_requested"`
	PointsReturned  int         `json:"points_returned"`
	Results         []pointJSON `json:"results"`
	Degraded        bool        `json:"degraded"`
	FailedPoints    int         `json:"failed_points,omitempty"`
	Solves          int64       `json:"solves,omitempty"`
}

// optimizeResponse is the /v1/optimize document.
type optimizeResponse struct {
	Params     Params    `json:"params"`
	GridPoints int       `json:"grid_points"`
	Best       pointJSON `json:"best"`
	Degraded   bool      `json:"degraded"`
}

// propagateResponse is the /v1/propagate document. Degraded marks a
// propagation standing on fewer draws than requested (skipped degenerate
// draws); the decision quantities are still valid over the survivors.
type propagateResponse struct {
	Params           Params             `json:"params"`
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
func (s *Server) analyzer(ctx context.Context, p Params) (*core.Analyzer, error) {
	key := requestKey("analyzer", p)
	if a, ok := s.analyzers.Get(ctx, key); ok {
		return a, nil
	}
	a, err := core.NewAnalyzerWithOptions(mdcd.Params(p), core.Options{Parametric: s.cfg.parametricMode()})
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

// serveRequest is the front half every solve route shares: decode and
// resolve req, take its timeout, key the resolved request and hand it to
// serveAPI. compute runs only after req is resolved, so it reads the
// resolved request. A rejection is the client's malformed request (400),
// except a specError, which the taxonomy maps.
func (s *Server) serveRequest(w http.ResponseWriter, r *http.Request, route string, req request, compute func(context.Context) *apiResult) {
	err := decodeRequest(r, req)
	if err == nil {
		err = req.resolve()
	}
	if err != nil {
		var se specError
		if errors.As(err, &se) {
			s.writeError(w, r, se.error)
		} else {
			s.badRequest(w, r, err)
		}
		return
	}
	budget := s.budget(req.takeTimeout())
	s.serveAPI(w, r, requestKey(route, req), budget, compute)
}

// handleCurve serves the Y(φ) curve of one parameter set.
func (s *Server) handleCurve(w http.ResponseWriter, r *http.Request) {
	var req CurveRequest
	s.serveRequest(w, r, "curve", &req, func(ctx context.Context) *apiResult {
		a, err := s.analyzer(ctx, req.Params)
		if err != nil {
			return errorResult(err)
		}
		resp, err := s.sweepCurve(ctx, a, req.Params, core.SweepGrid(req.Params.Theta, req.Points))
		if err != nil {
			return errorResult(err)
		}
		return jsonResult(resp, resp.Degraded, !resp.Degraded)
	})
}

// sweepCurve runs a's curve engine over grid and folds the outcome into
// a curve response for parameters p. The sweep runs under its own
// counter scope, so the response's solves field counts exactly this
// sweep's solver passes. A deadline mid-sweep degrades to the completed
// prefix instead of failing the request; every other failure is
// returned for the taxonomy to map.
func (s *Server) sweepCurve(ctx context.Context, a *core.Analyzer, p Params, grid []float64) (curveResponse, error) {
	ctx, scope := obs.WithScope(ctx)
	pr, err := a.CurvePartialWorkers(ctx, grid, s.cfg.Workers)
	degraded := err != nil
	if degraded && (!errors.Is(err, robust.ErrCanceled) || pr == nil || pr.Report.Succeeded() == 0) {
		return curveResponse{}, err
	}
	resp := curveResponse{
		Params:          p,
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
	s.serveRequest(w, r, "optimize", &req, func(ctx context.Context) *apiResult {
		a, err := s.analyzer(ctx, req.Params)
		if err != nil {
			return errorResult(err)
		}
		best, err := a.OptimizePhiContext(ctx, core.OptimizeOptions{GridPoints: req.GridPoints, Workers: s.cfg.Workers})
		if err != nil {
			// The refined optimum has no meaningful prefix — a canceled
			// search fails the request (504) rather than degrading.
			return errorResult(err)
		}
		resp := optimizeResponse{Params: req.Params, GridPoints: req.GridPoints, Best: pointOut(best)}
		return jsonResult(resp, false, true)
	})
}

// handlePropagate serves posterior uncertainty propagation of µ_new.
func (s *Server) handlePropagate(w http.ResponseWriter, r *http.Request) {
	var req PropagateRequest
	s.serveRequest(w, r, "propagate", &req, func(ctx context.Context) *apiResult {
		prop, err := uncertainty.PropagateContext(ctx, mdcd.Params(req.Params),
			uncertainty.Gamma{Shape: req.Shape, Rate: req.Rate},
			uncertainty.PropagateOptions{
				Samples: req.Samples, Seed: req.Seed, GridPoints: req.GridPoints,
				Workers: s.cfg.Workers, Parametric: s.cfg.parametricMode(),
			})
		if err != nil {
			return errorResult(err)
		}
		degraded := prop.SamplesUsed < prop.SamplesRequested
		resp := propagateResponse{
			Params:           req.Params,
			Posterior:        map[string]float64{"shape": req.Shape, "rate": req.Rate},
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
	})
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
