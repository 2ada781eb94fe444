package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// promNamespace prefixes every exposed metric family.
const promNamespace = "gsu"

// promName sanitizes a dotted counter/span name into a Prometheus metric
// name component: [a-zA-Z0-9_] with everything else collapsed to '_'.
func promName(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabel escapes a label value per the text exposition format.
func promLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// Labeled returns the counter name of one sample of a labelled counter
// family: family{label=value}. The text and JSON metrics writers print
// the name as is; the Prometheus writer exposes every sample of the
// family under one gsu_<family>_total{label="value"} family.
func Labeled(family, label, value string) string {
	return family + "{" + label + "=" + value + "}"
}

// splitLabeled parses a counter name built by Labeled back into its
// parts; any other name comes back whole with labeled false.
func splitLabeled(name string) (family, label, value string, labeled bool) {
	open := strings.IndexByte(name, '{')
	if open < 0 || !strings.HasSuffix(name, "}") {
		return name, "", "", false
	}
	kv := name[open+1 : len(name)-1]
	eq := strings.IndexByte(kv, '=')
	if eq < 0 {
		return name, "", "", false
	}
	return name[:open], kv[:eq], kv[eq+1:], true
}

// sortedKeys returns the keys of a map in deterministic order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WritePromText renders counters, span-stage aggregates and duration
// histograms in the Prometheus text exposition format (version 0.0.4).
// Counters become one family each (gsu_<name>_total), except that the
// samples of a labelled counter (see Labeled) share one family
// gsu_<family>_total{label="value"}; stages become the labelled pair
// gsu_stage_total / gsu_stage_nanos_total; histograms become the
// labelled family gsu_span_duration_seconds. Output ordering is
// deterministic so CI can diff two runs.
func WritePromText(w io.Writer, counters map[string]int64, stages map[string]StageStats, hists map[string]HistSnapshot) error {
	typed := make(map[string]bool)
	for _, name := range sortedKeys(counters) {
		family, label, value, labeled := splitLabeled(name)
		fam := promNamespace + "_" + promName(family) + "_total"
		if !typed[fam] {
			typed[fam] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", fam); err != nil {
				return fmt.Errorf("obs: writing prom counters: %w", err)
			}
		}
		sample := fam
		if labeled {
			sample = fmt.Sprintf(`%s{%s="%s"}`, fam, promName(label), promLabel(value))
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", sample, counters[name]); err != nil {
			return fmt.Errorf("obs: writing prom counters: %w", err)
		}
	}
	if len(stages) > 0 {
		if _, err := fmt.Fprintf(w, "# TYPE %s_stage_total counter\n# TYPE %s_stage_nanos_total counter\n",
			promNamespace, promNamespace); err != nil {
			return fmt.Errorf("obs: writing prom stages: %w", err)
		}
		for _, name := range sortedKeys(stages) {
			st := stages[name]
			if _, err := fmt.Fprintf(w, "%s_stage_total{stage=%q} %d\n%s_stage_nanos_total{stage=%q} %d\n",
				promNamespace, promLabel(name), st.Count, promNamespace, promLabel(name), st.Nanos); err != nil {
				return fmt.Errorf("obs: writing prom stages: %w", err)
			}
		}
	}
	if len(hists) > 0 {
		fam := promNamespace + "_span_duration_seconds"
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", fam); err != nil {
			return fmt.Errorf("obs: writing prom histograms: %w", err)
		}
		for _, name := range sortedKeys(hists) {
			h := hists[name]
			cum := int64(0)
			for i, c := range h.Counts {
				cum += c
				le := "+Inf"
				if i < len(h.BoundsNanos) {
					le = fmt.Sprintf("%g", float64(h.BoundsNanos[i])/1e9)
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{span=%q,le=%q} %d\n", fam, promLabel(name), le, cum); err != nil {
					return fmt.Errorf("obs: writing prom histograms: %w", err)
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum{span=%q} %g\n%s_count{span=%q} %d\n",
				fam, promLabel(name), float64(h.SumNanos)/1e9, fam, promLabel(name), h.Count); err != nil {
				return fmt.Errorf("obs: writing prom histograms: %w", err)
			}
		}
	}
	return nil
}
