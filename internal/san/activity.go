package san

import (
	"fmt"
	"math"
)

// RateFunc computes a marking-dependent firing rate.
type RateFunc func(Marking) float64

// Predicate reports whether an activity is enabled in a marking.
type Predicate func(Marking) bool

// MutateFunc applies a marking change when an activity fires.
type MutateFunc func(Marking)

// ProbFunc computes a marking-dependent case probability.
type ProbFunc func(Marking) float64

// ConstRate returns a RateFunc with a fixed rate.
func ConstRate(r float64) RateFunc { return func(Marking) float64 { return r } }

// ConstProb returns a ProbFunc with a fixed probability.
func ConstProb(p float64) ProbFunc { return func(Marking) float64 { return p } }

// inputGate couples an enabling predicate with a firing-time marking change.
type inputGate struct {
	name string
	pred Predicate
	fn   MutateFunc
}

// arc is a plain input or output arc with a multiplicity.
type arc struct {
	place  *Place
	tokens int
}

// Case is one completion alternative of an activity.
type Case struct {
	prob        ProbFunc
	outputArcs  []arc
	outputFuncs []MutateFunc
}

// AddOutputArc adds count tokens to place p when this case is selected.
// It panics if count is not positive (a model-construction bug).
func (c *Case) AddOutputArc(p *Place, count int) *Case {
	if count <= 0 {
		panic(fmt.Sprintf("san: output arc to %q must carry positive tokens", p.name))
	}
	c.outputArcs = append(c.outputArcs, arc{place: p, tokens: count})
	return c
}

// AddOutputFunc attaches an output-gate function to this case. Functions run
// after output arcs, in attachment order.
func (c *Case) AddOutputFunc(fn MutateFunc) *Case {
	c.outputFuncs = append(c.outputFuncs, fn)
	return c
}

// Activity is an exponentially timed SAN activity.
type Activity struct {
	name string
	rate RateFunc

	inputArcs  []arc
	inputGates []inputGate
	cases      []*Case
}

// Name returns the activity name.
func (a *Activity) Name() string { return a.name }

// Cases returns the activity's cases in creation order.
func (a *Activity) Cases() []*Case { return a.cases }

// AddTimedActivity creates an exponentially timed activity with the given
// marking-dependent rate.
func (m *Model) AddTimedActivity(name string, rate RateFunc) *Activity {
	a := &Activity{name: name, rate: rate}
	m.activities = append(m.activities, a)
	return a
}

// AddInputArc requires (and consumes) count tokens from place p.
// It panics if count is not positive (a model-construction bug).
func (a *Activity) AddInputArc(p *Place, count int) *Activity {
	if count <= 0 {
		panic(fmt.Sprintf("san: input arc from %q must carry positive tokens", p.name))
	}
	a.inputArcs = append(a.inputArcs, arc{place: p, tokens: count})
	return a
}

// AddInputGate attaches an input gate: pred contributes to enabling, fn (may
// be nil) mutates the marking at firing time before case selection.
// It panics if pred is nil (a model-construction bug).
func (a *Activity) AddInputGate(name string, pred Predicate, fn MutateFunc) *Activity {
	if pred == nil {
		panic(fmt.Sprintf("san: input gate %q on %q has nil predicate", name, a.name))
	}
	a.inputGates = append(a.inputGates, inputGate{name: name, pred: pred, fn: fn})
	return a
}

// AddCase appends a completion case with the given probability function.
func (a *Activity) AddCase(prob ProbFunc) *Case {
	c := &Case{prob: prob}
	a.cases = append(a.cases, c)
	return c
}

// ensureCases materialises the implicit certain case for activities built
// without explicit cases.
func (a *Activity) ensureCases() {
	if len(a.cases) == 0 {
		a.AddCase(ConstProb(1))
	}
}

// Enabled reports whether the activity is enabled in mk.
func (a *Activity) Enabled(mk Marking) bool {
	for _, ia := range a.inputArcs {
		if mk.Get(ia.place) < ia.tokens {
			return false
		}
	}
	for _, g := range a.inputGates {
		if !g.pred(mk) {
			return false
		}
	}
	return true
}

// Rate returns the activity's firing rate in mk. It panics on non-finite
// or negative rates.
func (a *Activity) Rate(mk Marking) float64 {
	r := a.rate(mk)
	if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		panic(fmt.Sprintf("san: activity %q has invalid rate %g", a.name, r))
	}
	return r
}

// Fire returns the markings reachable by firing a in mk, one per case with
// positive probability, together with each case's probability. The input
// marking is not modified. Case probabilities must sum to 1 within 1e-9.
func (a *Activity) Fire(mk Marking) ([]Marking, []float64, error) {
	a.ensureCases()
	base := mk.Clone()
	for _, ia := range a.inputArcs {
		base.Set(ia.place, base.Get(ia.place)-ia.tokens)
	}
	for _, g := range a.inputGates {
		if g.fn != nil {
			g.fn(base)
		}
	}
	var (
		outs  []Marking
		probs []float64
		total float64
	)
	for _, c := range a.cases {
		p := c.prob(mk)
		if p < 0 || math.IsNaN(p) {
			return nil, nil, fmt.Errorf("san: activity %q case probability %g", a.name, p)
		}
		total += p
		if p == 0 {
			continue
		}
		dst := base.Clone()
		for _, oa := range c.outputArcs {
			dst.Set(oa.place, dst.Get(oa.place)+oa.tokens)
		}
		for _, fn := range c.outputFuncs {
			fn(dst)
		}
		outs = append(outs, dst)
		probs = append(probs, p)
	}
	if math.Abs(total-1) > 1e-9 {
		return nil, nil, fmt.Errorf("san: activity %q case probabilities sum to %g, want 1", a.name, total)
	}
	return outs, probs, nil
}
