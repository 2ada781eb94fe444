package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"guardedop/internal/obs"
	"guardedop/internal/template"
)

// specBody wraps a template spec as a /v1/scenario/curve request body.
func specBody(t *testing.T, spec *template.Spec, extra string) string {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshaling spec: %v", err)
	}
	if extra != "" {
		extra = "," + extra
	}
	return fmt.Sprintf(`{"spec":%s%s}`, raw, extra)
}

// TestScenarioCurveHappyPath serves the canonical templated scenario and
// checks the realized-scenario summary, the curve itself, and that both
// the scenario cache and the response cache make repeats cheap.
func TestScenarioCurveHappyPath(t *testing.T) {
	t.Parallel()
	tr := obs.NewTracer()
	s := New(Config{Tracer: tr})
	h := s.Handler()

	body := specBody(t, template.PaperSpec(), `"points":6`)
	rec := hit(h, http.MethodPost, "/v1/scenario/curve", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp scenarioCurveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	sc := resp.Scenario
	if sc.Name != "paper-baseline" || sc.Nodes != 2 || sc.Policy != string(template.PolicyGlobal) {
		t.Errorf("scenario summary = %+v, want the paper baseline", sc)
	}
	if sc.States == 0 || len(sc.Rhos) != 2 || sc.GpMeanField {
		t.Errorf("realized scenario = %+v, want generated states and 2 joint-solved rhos", sc)
	}
	if resp.Degraded || resp.PointsRequested != 7 || resp.PointsReturned != 7 {
		t.Fatalf("curve = %+v, want full undegraded 7-point sweep", resp.curveResponse)
	}
	for _, pt := range resp.Results {
		if !(pt.Y > 0) || math.IsNaN(pt.Y) {
			t.Fatalf("Y(φ=%g) = %g, want positive finite", pt.Phi, pt.Y)
		}
	}
	if got := tr.Counter(obs.CtrTemplateInstances); got != 1 {
		t.Errorf("template.instances = %d, want 1 build", got)
	}

	// The identical query replays from the response cache; a different
	// grid over the same spec reuses the built scenario (no second build).
	rec2 := hit(h, http.MethodPost, "/v1/scenario/curve", body)
	if rec2.Code != http.StatusOK || rec2.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat query: status %d, X-Cache %q, want cached 200", rec2.Code, rec2.Header().Get("X-Cache"))
	}
	rec3 := hit(h, http.MethodPost, "/v1/scenario/curve", specBody(t, template.PaperSpec(), `"points":3`))
	if rec3.Code != http.StatusOK {
		t.Fatalf("regridded query: status %d, body %s", rec3.Code, rec3.Body.String())
	}
	if got := tr.Counter(obs.CtrTemplateInstances); got != 1 {
		t.Errorf("template.instances = %d after regrid, want the cached build reused", got)
	}
}

// TestScenarioCurveWithoutDefaults: the defaults block is optional when
// every node carries its own rates. Such a spec must be served like the
// same scenario spelled with defaults — 200 and bit-identical Y — since
// the analyzer's baseline rates come from the resolved scenario.
func TestScenarioCurveWithoutDefaults(t *testing.T) {
	t.Parallel()
	h := New(Config{}).Handler()
	noDefaults := `{"spec":{"name":"paper-baseline","theta":10000,"coverage":0.95,"alpha":6000,"beta":6000,` +
		`"guard":{"policy":"global"},"nodes":[` +
		`{"name":"P1","lambda":1200,"p_ext":0.1,"mu_old":1e-8,"upgrade":{"mu_new":1e-4}},` +
		`{"name":"P2","lambda":1200,"p_ext":0.1,"mu_old":1e-8}]},"points":6}`
	curve := func(body string) []pointJSON {
		t.Helper()
		rec := hit(h, http.MethodPost, "/v1/scenario/curve", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
		}
		var resp scenarioCurveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
		return resp.Results
	}
	got := curve(noDefaults)
	want := curve(specBody(t, template.PaperSpec(), `"points":6`))
	if len(got) != len(want) || len(got) != 7 {
		t.Fatalf("got %d points, want %d (= 7)", len(got), len(want))
	}
	for i := range got {
		if got[i].Phi != want[i].Phi || math.Float64bits(got[i].Y) != math.Float64bits(want[i].Y) {
			t.Errorf("point %d: Y(%g) = %v without defaults, %v with", i, got[i].Phi, got[i].Y, want[i].Y)
		}
	}
}

// TestScenarioCurveTooLarge is the oversized-spec contract: a scenario
// whose reachability exploration exceeds its state budget is refused
// with the typed statespace sentinel, which the robust taxonomy maps to
// 422 — an unprocessable model, not a malformed request or a 500.
func TestScenarioCurveTooLarge(t *testing.T) {
	t.Parallel()
	s := New(Config{})
	spec := template.PaperSpec()
	spec.Limits.MaxStates = 4
	rec := hit(s.Handler(), http.MethodPost, "/v1/scenario/curve", specBody(t, spec, ""))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body %s)", rec.Code, rec.Body.String())
	}
	var env errEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("decoding envelope: %v", err)
	}
	if env.Class != "invariant" {
		t.Errorf("class = %q, want invariant", env.Class)
	}
	if !strings.Contains(env.Error, "state space too large") {
		t.Errorf("error %q does not name the state-space limit", env.Error)
	}
}

// TestScenarioCurveRejections: request-shaped problems are 400s, while a
// well-formed request carrying an invalid spec is a 422.
func TestScenarioCurveRejections(t *testing.T) {
	t.Parallel()
	s := New(Config{})
	h := s.Handler()
	for _, tc := range []struct {
		name, method, body string
		want               int
	}{
		{"GET unsupported", http.MethodGet, "", http.StatusBadRequest},
		{"missing spec", http.MethodPost, `{"points":4}`, http.StatusBadRequest},
		{"malformed body", http.MethodPost, `{`, http.StatusBadRequest},
		{"points out of range", http.MethodPost,
			specBody(t, template.PaperSpec(), fmt.Sprintf(`"points":%d`, maxCurvePoints+1)),
			http.StatusBadRequest},
		{"invalid spec contents", http.MethodPost,
			`{"spec":{"name":"x","theta":-1}}`, http.StatusUnprocessableEntity},
		{"single-node spec", http.MethodPost,
			`{"spec":{"name":"x","theta":100,"coverage":0.9,"alpha":1,"beta":1,"nodes":[{"name":"A"}]}}`,
			http.StatusUnprocessableEntity},
	} {
		rec := hit(h, tc.method, "/v1/scenario/curve", tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}
}
