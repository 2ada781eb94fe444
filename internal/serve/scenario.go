package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"guardedop/internal/core"
	"guardedop/internal/template"
)

// maxScenarioStates caps the generated state spaces of a served scenario.
// A spec may tighten the cap via its own limits but never loosen it: the
// daemon refuses to generate chains this path cannot solve inside a
// route budget, and the refusal surfaces as a typed
// statespace.ErrStateSpaceTooLarge (422), not an OOM.
const maxScenarioStates = 1 << 15

// ScenarioCurveRequest asks for the Y(φ) curve of a templated N-node
// scenario. The spec document is the internal/template JSON schema
// (docs/TEMPLATES.md); unlike the parameter routes there is no query
// form — a nested spec only travels as a POST body.
type ScenarioCurveRequest struct {
	Spec      json.RawMessage `json:"spec"`
	Points    int             `json:"points,omitempty"`
	TimeoutMS int             `json:"timeout_ms,omitempty"`
}

// scenarioJSON summarizes the built instance in the response, so a
// client can see how its spec was actually realized (state count, which
// overhead path solved ρ, the per-node values).
type scenarioJSON struct {
	Name        string    `json:"name"`
	Nodes       int       `json:"nodes"`
	Policy      string    `json:"policy"`
	States      int       `json:"states"`
	GpMeanField bool      `json:"gp_mean_field"`
	Rhos        []float64 `json:"rhos"`
}

// scenarioCurveResponse is the /v1/scenario/curve document: the curve
// payload plus the realized-scenario summary.
type scenarioCurveResponse struct {
	Scenario scenarioJSON `json:"scenario"`
	curveResponse
}

// scenarioEntry pairs a built instance with its analyzer — the cached
// unit, so repeat queries over one spec (different point counts, say)
// skip both state-space generation and the steady-state solves.
type scenarioEntry struct {
	inst *template.Instance
	ana  *core.Analyzer
}

// scenario returns the cached built scenario for spec, building on a
// miss. Same contract as Server.analyzer: concurrent misses may build
// twice, harmlessly, and entries are immutable.
func (s *Server) scenario(ctx context.Context, spec *template.Spec) (*scenarioEntry, error) {
	key := "scenario:" + spec.Hash()
	if e, ok := s.scenarios.Get(ctx, key); ok {
		return e, nil
	}
	inst, err := template.Build(ctx, spec)
	if err != nil {
		return nil, err
	}
	ana, err := core.NewScenarioAnalyzer(core.ScenarioModels{
		Params: inst.Params,
		Gd:     inst.Gd,
		NdNew:  inst.NdNew,
		NdOld:  inst.NdOld,
		Rhos:   inst.Rhos,
	}, core.Options{Parametric: s.cfg.parametricMode()})
	if err != nil {
		return nil, err
	}
	e := &scenarioEntry{inst: inst, ana: ana}
	s.scenarios.Put(ctx, key, e)
	return e, nil
}

// handleScenarioCurve serves the Y(φ) curve of one templated scenario.
func (s *Server) handleScenarioCurve(w http.ResponseWriter, r *http.Request) {
	var req ScenarioCurveRequest
	if err := decodeRequest(r, &req); err != nil {
		s.badRequest(w, r, err)
		return
	}
	if len(req.Spec) == 0 {
		s.badRequest(w, r, fmt.Errorf("missing scenario spec (docs/TEMPLATES.md describes the schema)"))
		return
	}
	spec, err := template.Parse(req.Spec)
	if err != nil {
		// Spec-level rejections are typed robust.ErrInvariant: the request
		// document was well-formed, its contents were not — 422 territory.
		s.writeError(w, r, err)
		return
	}
	if spec.Limits.MaxStates == 0 || spec.Limits.MaxStates > maxScenarioStates {
		spec.Limits.MaxStates = maxScenarioStates
	}
	points := req.Points
	if points == 0 {
		points = 20
	}
	if points < 1 || points > maxCurvePoints {
		s.badRequest(w, r, fmt.Errorf("points %d out of range [1, %d]", points, maxCurvePoints))
		return
	}
	key := scenarioKey(spec.Hash(), points)
	s.serveAPI(w, r, key, s.budget(req.TimeoutMS), func(ctx context.Context) *apiResult {
		return s.computeScenarioCurve(ctx, spec, points)
	})
}

// scenarioKey is the coalescing/cache key of one scenario-curve request:
// the spec's canonical hash (cap already applied) plus the grid size.
func scenarioKey(hash string, points int) string {
	var k keyBuf
	k.str("scenario-curve")
	k.str(hash)
	k.i64(int64(points))
	return k.String()
}

func (s *Server) computeScenarioCurve(ctx context.Context, spec *template.Spec, points int) *apiResult {
	e, err := s.scenario(ctx, spec)
	if err != nil {
		return errorResult(err)
	}
	curve, err := s.sweepCurve(ctx, e.ana, e.inst.Params, core.SweepGrid(e.inst.Params.Theta, points))
	if err != nil {
		return errorResult(err)
	}
	resp := scenarioCurveResponse{
		Scenario: scenarioJSON{
			Name:        spec.Name,
			Nodes:       len(spec.Nodes),
			Policy:      string(spec.Policy()),
			States:      e.inst.TotalStates,
			GpMeanField: e.inst.GpMeanField,
			Rhos:        e.inst.Rhos,
		},
		curveResponse: curve,
	}
	return jsonResult(resp, curve.Degraded, !curve.Degraded)
}
