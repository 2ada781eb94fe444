package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"

	"guardedop/internal/obs"
	"guardedop/internal/robust"
)

// solveRoutes pairs each solve route's key name with a constructor of its
// empty request document.
var solveRoutes = []struct {
	name string
	new  func() request
}{
	{"curve", func() request { return new(CurveRequest) }},
	{"optimize", func() request { return new(OptimizeRequest) }},
	{"propagate", func() request { return new(PropagateRequest) }},
	{"scenario-curve", func() request { return new(ScenarioCurveRequest) }},
}

// rawRequest builds a request without URL validation, so arbitrary fuzz
// queries reach the decoder as they would off the wire.
func rawRequest(method, query string, body []byte) *http.Request {
	return &http.Request{
		Method: method,
		URL:    &url.URL{RawQuery: query},
		Body:   io.NopCloser(bytes.NewReader(body)),
	}
}

// resolvedKey decodes and resolves one request the way serveRequest does
// and returns its key, or the rejection.
func resolvedKey(route int, r *http.Request) (string, error) {
	req := solveRoutes[route].new()
	err := decodeRequest(r, req)
	if err == nil {
		err = req.resolve()
	}
	if err != nil {
		return "", err
	}
	req.takeTimeout()
	return requestKey(solveRoutes[route].name, req), nil
}

// Only exactly -1 means zero; any other negative parameter is a 400 that
// names the field, not a model solved at zero.
func TestNegativeParamRejectedByName(t *testing.T) {
	t.Parallel()
	h := New(Config{}).Handler()
	for _, tc := range []struct{ method, target, body, field string }{
		{http.MethodPost, "/v1/curve", `{"params":{"coverage":-0.3},"points":4}`, "coverage"},
		{http.MethodPost, "/v1/optimize", `{"params":{"mu_new":-5e-4}}`, "mu_new"},
		{http.MethodPost, "/v1/propagate", `{"params":{"mu_old":-2},"samples":2}`, "mu_old"},
		{http.MethodGet, "/v1/curve?lambda=-0.5&points=4", "", "lambda"},
	} {
		rec := hit(h, tc.method, tc.target, tc.body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "params."+tc.field) {
			t.Errorf("%s %s %s: status %d body %s, want 400 naming params.%s",
				tc.method, tc.target, tc.body, rec.Code, rec.Body.String(), tc.field)
		}
	}
	rec := hit(h, http.MethodPost, "/v1/curve", `{"params":{"coverage":-1},"points":4}`)
	var resp curveResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || resp.Params.Coverage != 0 {
		t.Errorf("coverage -1: status %d body %s, want 200 solved at c = 0", rec.Code, rec.Body.String())
	}
}

// Requests that resolve alike share one flight and one response-cache
// entry: `{}` and its explicit-defaults spelling, and two bodies that
// differ only in timeout_ms. Each pair is sent concurrently to a fresh
// numeric server: exactly one curve sweep runs, and the other request is
// either coalesced onto it or served from the cache it filled.
func TestEquivalentRequestsShareOneSolve(t *testing.T) {
	t.Parallel()
	for _, pair := range [][2]string{
		{`{}`, `{"params":{"theta":10000,"lambda":1200,"mu_new":1e-4,"mu_old":1e-8,` +
			`"coverage":0.95,"p_ext":0.1,"alpha":6000,"beta":6000},"points":20}`},
		{`{"points":64,"timeout_ms":60000}`, `{"points":64,"timeout_ms":90000}`},
	} {
		keys := [2]string{}
		for i, body := range pair {
			key, err := resolvedKey(0, rawRequest(http.MethodPost, "", []byte(body)))
			if err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			keys[i] = key
		}
		if keys[0] != keys[1] {
			t.Errorf("keys differ:\n  %s\n  %s", keys[0], keys[1])
		}

		tr := obs.NewTracer()
		h := New(Config{Tracer: tr, Parametric: "off"}).Handler()
		var wg sync.WaitGroup
		bodies := [2]string{}
		for i, body := range pair {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := hit(h, http.MethodPost, "/v1/curve", body)
				if rec.Code != http.StatusOK {
					t.Errorf("%s: status = %d, body %s", body, rec.Code, rec.Body.String())
				}
				bodies[i] = rec.Body.String()
			}()
		}
		wg.Wait()
		if bodies[0] != bodies[1] {
			t.Errorf("%v: answers differ", pair)
		}
		if got := tr.Stages()["core.curve"].Count; got != 1 {
			t.Errorf("%v: core.curve ran %d times, want 1", pair, got)
		}
		shared := tr.Counter(obs.CtrServeCoalesced) + tr.Counter(obs.CtrServeCacheHits)
		if shared != 1 {
			t.Errorf("%v: coalesced + response-cache hits = %d, want 1", pair, shared)
		}
	}
}

// FuzzDecodeRequest drives arbitrary (method, route, query, body) inputs
// through the serving path's decode and resolve, without solving. It
// must never panic; every rejection must be a malformed-request error
// (400), except a scenario spec's own typed robust.ErrInvariant (422);
// and an accepted request re-sent in its POST form — the decoded
// document, re-encoded — must resolve to the same key.
func FuzzDecodeRequest(f *testing.F) {
	spec := `{"name":"p","theta":10000,"coverage":0.95,"alpha":6000,"beta":6000,` +
		`"defaults":{"lambda":1200,"p_ext":0.1,"mu_old":1e-8},` +
		`"nodes":[{"name":"P1","upgrade":{"mu_new":1e-4}},{"name":"P2"}]}`
	for _, s := range []struct {
		method, route uint8
		query, body   string
	}{
		{0, 0, "points=4&lambda=0.03", ""},
		{0, 0, "mu_old=-1&timeout_ms=500&points=2048", ""},
		{0, 1, "grid_points=10&coverage=-1", ""},
		{0, 2, "samples=4&seed=3&grid_points=8&shape=2&rate=2e4", ""},
		{0, 0, "lamda=0.03", ""},
		{1, 0, "", `{}`},
		{1, 0, "", `{"params":{"theta":5000,"mu_new":-1},"points":1,"timeout_ms":7}`},
		{1, 1, "", `{"params":{"coverage":-0.3},"grid_points":2}`},
		{1, 2, "", `{"params":{"mu_new":1e-310}}`},
		{1, 2, "", `{"shape":3,"rate":30000,"samples":2048,"seed":-7,"grid_points":2}`},
		{1, 3, "", `{"spec":` + spec + `,"points":6}`},
		{1, 3, "", `{"spec":{"name":"x","theta":-1}}`},
		{2, 0, "", `{}`},
	} {
		f.Add(s.method, s.route, s.query, []byte(s.body))
	}
	methods := []string{http.MethodGet, http.MethodPost, http.MethodPut}
	f.Fuzz(func(t *testing.T, method, route uint8, query string, body []byte) {
		m := methods[int(method)%len(methods)]
		i := int(route) % len(solveRoutes)
		raw := solveRoutes[i].new()
		if err := decodeRequest(rawRequest(m, query, body), raw); err != nil {
			var se specError
			if errors.As(err, &se) {
				t.Fatalf("decode error is a spec error: %v", err)
			}
			return
		}
		form, err := json.Marshal(raw)
		if err != nil {
			t.Fatalf("re-encoding the decoded request: %v", err)
		}
		key, err := resolvedKey(i, rawRequest(m, query, body))
		if err != nil {
			var se specError
			if errors.As(err, &se) && (solveRoutes[i].name != "scenario-curve" || !errors.Is(se.error, robust.ErrInvariant)) {
				t.Fatalf("spec error %v outside a scenario spec's typed rejection", err)
			}
			return
		}
		again, err := resolvedKey(i, rawRequest(http.MethodPost, "", form))
		if err != nil {
			t.Fatalf("POST form %s of an accepted request rejected: %v", form, err)
		}
		if again != key {
			t.Fatalf("POST form %s keys differently:\n  %s\n  %s", form, key, again)
		}
	})
}
