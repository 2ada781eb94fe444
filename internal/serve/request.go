package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"reflect"
	"slices"
	"strings"

	"guardedop/internal/mdcd"
)

// maxRequestBody bounds a request document; parameter sets are tiny, so
// anything larger is garbage or abuse.
const maxRequestBody = 1 << 16

// Limits on request-supplied work sizes, so a single query cannot ask the
// daemon for an unbounded amount of solving.
const (
	maxCurvePoints      = 2048
	maxPropagateSamples = 2048
)

// Params is the wire shape of a model parameter set. In a request a zero
// field takes the paper's Table 3 default, so `{}` queries the baseline,
// and -1 stands for exactly zero (µ_old = 0, c = 0, …). Responses echo the
// resolved set in the same shape. The fields are mdcd.Params's, in its
// order, so the two types convert into each other.
type Params struct {
	Theta    float64 `json:"theta"`
	Lambda   float64 `json:"lambda"`
	MuNew    float64 `json:"mu_new"`
	MuOld    float64 `json:"mu_old"`
	Coverage float64 `json:"coverage"`
	PExt     float64 `json:"p_ext"`
	Alpha    float64 `json:"alpha"`
	Beta     float64 `json:"beta"`
}

// paramNames lists Params's JSON names in field order: the GET query keys
// that nest under "params", and the names resolve reports.
var paramNames = func() []string {
	t := reflect.TypeOf(Params{})
	names := make([]string, t.NumField())
	for i := range names {
		names[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
	}
	return names
}()

// resolve replaces each zero field by its paper default and each -1 by
// zero, then validates the set. Any other negative value is rejected by
// name rather than read as zero.
func (p *Params) resolve() error {
	v, def := reflect.ValueOf(p).Elem(), reflect.ValueOf(mdcd.DefaultParams())
	for i, name := range paramNames {
		f := v.Field(i)
		switch x := f.Float(); {
		case x == 0:
			f.SetFloat(def.Field(i).Float())
		//lint:ignore floateq -1 is the exact "zero" sentinel of the wire format, not a computed value
		case x == -1:
			f.SetFloat(0)
		case x < 0:
			return fmt.Errorf("params.%s = %g is negative; only -1 (meaning zero) is accepted", name, x)
		}
	}
	return mdcd.Params(*p).Validate()
}

// Timeout is the optional timeout_ms field of every solve request. It
// tightens the server's per-route deadline for this request and can
// never extend it.
type Timeout struct {
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// takeTimeout returns timeout_ms and clears it: a deadline changes when a
// request gives up, never what the full answer would be, so it stays out
// of the request key and differently impatient clients share one solve.
func (t *Timeout) takeTimeout() int {
	ms := t.TimeoutMS
	t.TimeoutMS = 0
	return ms
}

// request is one solve route's input document. resolve fills its
// defaults in place and checks its bounds; the resolved request, once
// its timeout is taken, is what requestKey encodes.
type request interface {
	resolve() error
	takeTimeout() int
}

// CurveRequest asks for the Y(φ) curve of one parameter set.
type CurveRequest struct {
	Params Params `json:"params"`
	// Points is the number of grid intervals over [0, θ] (default 20,
	// max maxCurvePoints).
	Points int `json:"points,omitempty"`
	Timeout
}

func (r *CurveRequest) resolve() error {
	if err := r.Params.resolve(); err != nil {
		return err
	}
	return sized("points", &r.Points, 20, 1, maxCurvePoints)
}

// OptimizeRequest asks for the continuously refined optimal duration.
type OptimizeRequest struct {
	Params Params `json:"params"`
	// GridPoints is the coarse bracketing grid (default 20 intervals).
	GridPoints int `json:"grid_points,omitempty"`
	Timeout
}

func (r *OptimizeRequest) resolve() error {
	if err := r.Params.resolve(); err != nil {
		return err
	}
	return sized("grid_points", &r.GridPoints, 20, 2, maxCurvePoints)
}

// PropagateRequest asks for posterior uncertainty propagation of µ_new.
type PropagateRequest struct {
	Params Params `json:"params"`
	// Shape and Rate parameterize the Gamma posterior over µ_new.
	// Defaults reproduce a weakly informed posterior centred on the
	// paper's µ_new: shape 2, rate 2/µ_new.
	Shape float64 `json:"shape,omitempty"`
	Rate  float64 `json:"rate,omitempty"`
	// Samples is the number of posterior draws (default 50 on the
	// serving path, max maxPropagateSamples).
	Samples int `json:"samples,omitempty"`
	// Seed seeds the deterministic draw stream (default 1).
	Seed       int64 `json:"seed,omitempty"`
	GridPoints int   `json:"grid_points,omitempty"`
	Timeout
}

func (r *PropagateRequest) resolve() error {
	if err := r.Params.resolve(); err != nil {
		return err
	}
	switch {
	case r.Shape == 0 && r.Rate == 0:
		if r.Params.MuNew <= 0 {
			return errors.New("default posterior needs mu_new > 0; supply shape and rate explicitly")
		}
		r.Shape, r.Rate = 2, 2/r.Params.MuNew
		if math.IsInf(r.Rate, 0) {
			return fmt.Errorf("default posterior rate 2/mu_new overflows at mu_new = %g; supply shape and rate explicitly", r.Params.MuNew)
		}
	case r.Shape <= 0 || r.Rate <= 0:
		return fmt.Errorf("posterior needs both shape (%g) and rate (%g) positive", r.Shape, r.Rate)
	}
	if err := sized("samples", &r.Samples, 50, 2, maxPropagateSamples); err != nil {
		return err
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	return sized("grid_points", &r.GridPoints, 20, 2, maxCurvePoints)
}

// sized resolves one work-size field: zero takes def, and the result must
// lie in [lo, hi].
func sized(name string, v *int, def, lo, hi int) error {
	if *v == 0 {
		*v = def
	}
	if *v < lo || *v > hi {
		return fmt.Errorf("%s %d out of range [%d, %d]", name, *v, lo, hi)
	}
	return nil
}

// specError carries a scenario spec's own rejection (a typed
// robust.ErrInvariant) out of resolve, so it is answered through the
// taxonomy as a 422 rather than as a malformed request.
type specError struct{ error }

// decodeRequest reads one solve request document into req. POST sends
// the document as its body; GET sends the same fields as a flat query,
// which queryDocument re-encodes as that document. Both go through one
// strict decoder: unknown fields, values of the wrong type and trailing
// data are errors.
func decodeRequest(r *http.Request, req request) error {
	var body io.Reader
	switch r.Method {
	case http.MethodPost:
		body = http.MaxBytesReader(nil, r.Body, maxRequestBody)
	case http.MethodGet:
		doc, err := queryDocument(r.URL.RawQuery)
		if err != nil {
			return err
		}
		body = bytes.NewReader(doc)
	default:
		return fmt.Errorf("method %s not allowed", r.Method)
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("decoding request: data after the JSON document")
	}
	return nil
}

// queryDocument re-encodes a flat GET query as the JSON document POST
// takes: the model-parameter names nest under "params" (matched without
// case, as the decoder matches field names), every other key stays at the
// top level. A value that is a JSON number goes in as that
// number and any other value as a string, which the decoder then rejects
// for a numeric field. A repeated key is an error.
func queryDocument(rawQuery string) ([]byte, error) {
	q, err := url.ParseQuery(rawQuery)
	if err != nil {
		return nil, fmt.Errorf("parsing query: %w", err)
	}
	doc := make(map[string]any, len(q))
	params := make(map[string]any)
	for k, vs := range q {
		if len(vs) != 1 {
			return nil, fmt.Errorf("query key %q given %d times", k, len(vs))
		}
		var v any = vs[0]
		if isJSONNumber(vs[0]) {
			v = json.RawMessage(vs[0])
		}
		if slices.ContainsFunc(paramNames, func(n string) bool { return strings.EqualFold(n, k) }) {
			params[k] = v
		} else {
			doc[k] = v
		}
	}
	if len(params) > 0 {
		if _, ok := doc["params"]; ok {
			return nil, errors.New(`query key "params" clashes with the flat parameter keys`)
		}
		doc["params"] = params
	}
	return json.Marshal(doc)
}

// isJSONNumber reports whether s is exactly one JSON number literal.
func isJSONNumber(s string) bool {
	return s != "" && (s[0] == '-' || ('0' <= s[0] && s[0] <= '9')) && json.Valid([]byte(s))
}

// requestKey is the one key of the response cache, the coalescer and the
// analyzer caches: the route (or cache) name plus the JSON encoding of a
// resolved value. Go writes each float in its shortest round-trip form,
// which is injective on the finite floats a decoded request holds, so two
// requests share a key exactly when they resolve bit-identically. It
// panics if v does not encode, which resolve rules out by leaving only
// finite floats.
func requestKey(route string, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("serve: encoding the %s key: %v", route, err))
	}
	return route + " " + string(b)
}
