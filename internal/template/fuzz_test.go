package template_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"guardedop/internal/robust"
	"guardedop/internal/template"
)

// legacyLimitsSpec is the paper spec with the retired
// limits.max_vanishing_depth field still set; Parse ignores it.
const legacyLimitsSpec = `{"name":"legacy","theta":10000,"coverage":0.95,"alpha":6000,"beta":6000,
"defaults":{"lambda":1200,"p_ext":0.1,"mu_old":1e-8},
"nodes":[{"name":"P1","upgrade":{"mu_new":1e-4}},{"name":"P2"}],
"limits":{"max_states":4096,"max_vanishing_depth":64}}`

// FuzzParseSpec feeds arbitrary bytes to template.Parse: it must never
// panic, every rejection must be a typed robust.ErrInvariant, and every
// accepted spec must hash (the serving layer's cache key).
func FuzzParseSpec(f *testing.F) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("scenario seeds: %v (found %d)", err, len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	paper, err := json.Marshal(template.PaperSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(paper)
	f.Add([]byte(legacyLimitsSpec))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := template.Parse(data)
		if err != nil {
			if !errors.Is(err, robust.ErrInvariant) {
				t.Fatalf("Parse error %v does not wrap robust.ErrInvariant", err)
			}
			return
		}
		if spec.Hash() == "" {
			t.Fatal("accepted spec has an empty hash")
		}
	})
}
