package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

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
	Spec   json.RawMessage `json:"spec"`
	Points int             `json:"points,omitempty"`
	Timeout

	spec *template.Spec // the parsed spec, set by resolve
}

// resolve parses the spec, caps its state spaces at maxScenarioStates and
// replaces the document by the canonical hash of the capped spec, so two
// spellings of one scenario share a key and the key stays short. A spec
// rejection is a specError: the request document was well-formed, its
// contents were not — 422 territory.
func (r *ScenarioCurveRequest) resolve() error {
	if len(r.Spec) == 0 {
		return errors.New("missing scenario spec (docs/TEMPLATES.md describes the schema)")
	}
	spec, err := template.Parse(r.Spec)
	if err != nil {
		return specError{err}
	}
	if spec.Limits.MaxStates == 0 || spec.Limits.MaxStates > maxScenarioStates {
		spec.Limits.MaxStates = maxScenarioStates
	}
	if err := sized("points", &r.Points, 20, 1, maxCurvePoints); err != nil {
		return err
	}
	r.spec = spec
	r.Spec = json.RawMessage(strconv.Quote(spec.Hash()))
	return nil
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

// scenario returns the cached built scenario of a resolved request,
// building on a miss. Same contract as Server.analyzer: concurrent misses
// may build twice, harmlessly, and entries are immutable.
func (s *Server) scenario(ctx context.Context, req *ScenarioCurveRequest) (*scenarioEntry, error) {
	key := requestKey("scenario", req.Spec)
	if e, ok := s.scenarios.Get(ctx, key); ok {
		return e, nil
	}
	inst, err := template.Build(ctx, req.spec)
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
	if r.Method == http.MethodGet {
		s.badRequest(w, r, errors.New("scenario requests take a JSON POST body, not query parameters"))
		return
	}
	var req ScenarioCurveRequest
	s.serveRequest(w, r, "scenario-curve", &req, func(ctx context.Context) *apiResult {
		e, err := s.scenario(ctx, &req)
		if err != nil {
			return errorResult(err)
		}
		p := Params(e.inst.Params)
		curve, err := s.sweepCurve(ctx, e.ana, p, core.SweepGrid(p.Theta, req.Points))
		if err != nil {
			return errorResult(err)
		}
		resp := scenarioCurveResponse{
			Scenario: scenarioJSON{
				Name:        req.spec.Name,
				Nodes:       len(req.spec.Nodes),
				Policy:      string(req.spec.Policy()),
				States:      e.inst.TotalStates,
				GpMeanField: e.inst.GpMeanField,
				Rhos:        e.inst.Rhos,
			},
			curveResponse: curve,
		}
		return jsonResult(resp, curve.Degraded, !curve.Degraded)
	})
}
