package ctmc

import (
	"errors"
	"fmt"

	"guardedop/internal/sparse"
)

// FirstPassage holds expected hitting times and hitting probabilities for a
// target state set.
type FirstPassage struct {
	// HitProbability[s] is the probability the chain started in s ever
	// enters the target set.
	HitProbability []float64
	// MeanTime[s] is E[T·1(hit)] from s: the expected first-passage time
	// accumulated on hitting trajectories only. When HitProbability[s] is
	// one this is the classical expected hitting time; otherwise divide by
	// HitProbability[s] for the conditional mean. Target states have 0.
	MeanTime []float64
}

// errEmptyTargets guards FirstPassageAnalysis.
var errEmptyTargets = errors.New("ctmc: empty first-passage target set")

// FirstPassageAnalysis computes, for every state, the probability of ever
// reaching the target set and the expected first-passage time. Target
// states themselves have probability 1 and time 0. The analysis treats the
// targets as absorbing: transitions out of them are ignored.
func (c *Chain) FirstPassageAnalysis(targets []int) (*FirstPassage, error) {
	if len(targets) == 0 {
		return nil, errEmptyTargets
	}
	isTarget := make(map[int]bool, len(targets))
	for _, s := range targets {
		if s < 0 || s >= c.n {
			return nil, fmt.Errorf("ctmc: target state %d out of range [0,%d)", s, c.n)
		}
		isTarget[s] = true
	}

	fp := &FirstPassage{
		HitProbability: make([]float64, c.n),
		MeanTime:       make([]float64, c.n),
	}
	for s := range isTarget {
		fp.HitProbability[s] = 1
	}

	// Restrict the linear system to non-target states that can reach the
	// target at all (reverse reachability from the target set); states
	// that cannot — absorbing traps or closed classes avoiding the target
	// — have hitting probability 0 and contribute no hitting time, and
	// would make the restricted block singular if kept.
	canReach := c.reverseReachable(isTarget)
	var rest []int
	restIdx := make(map[int]int)
	for s := 0; s < c.n; s++ {
		if !isTarget[s] && canReach[s] {
			restIdx[s] = len(rest)
			rest = append(rest, s)
		}
	}
	nr := len(rest)
	if nr == 0 {
		return fp, nil
	}

	// Hitting probabilities h solve  Q_RR h + r = 0  with
	// r[i] = Σ_{t in targets} Q(rest[i], t); equivalently (-Q_RR) h = r.
	// Mean times m solve (-Q_RR) m = h (unconditional expectation
	// accumulates time only along hitting trajectories when h < 1; when
	// h == 1 this is the classical hitting-time system (-Q_RR) m = 1).
	qrr := sparse.NewDense(nr, nr)
	r := make([]float64, nr)
	for i, s := range rest {
		c.gen.Row(s, func(t int, v float64) {
			if j, ok := restIdx[t]; ok {
				qrr.Set(i, j, -v)
			} else if t != s && isTarget[t] {
				// Rates into the target feed the hitting probability;
				// rates into excluded states (traps that cannot reach the
				// target) are pure loss and appear only through the
				// diagonal exit rate.
				r[i] += v
			}
		})
	}
	f, err := sparse.FactorLU(qrr)
	if err != nil {
		// A singular restricted block means some state can neither reach
		// the target nor leave its component: hitting probability 0 there.
		return nil, fmt.Errorf("ctmc: first-passage system singular (states that never move): %w", err)
	}
	h, err := f.Solve(r)
	if err != nil {
		return nil, err
	}
	m, err := f.Solve(h)
	if err != nil {
		return nil, err
	}
	for i, s := range rest {
		p := h[i]
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		fp.HitProbability[s] = p
		fp.MeanTime[s] = m[i]
	}
	return fp, nil
}

// reverseReachable returns, for every state, whether the target set is
// reachable from it, by breadth-first search over reversed transitions.
func (c *Chain) reverseReachable(isTarget map[int]bool) []bool {
	// Build reverse adjacency once.
	radj := make([][]int, c.n)
	for s := 0; s < c.n; s++ {
		c.gen.Row(s, func(t int, v float64) {
			if t != s && v > 0 {
				radj[t] = append(radj[t], s)
			}
		})
	}
	seen := make([]bool, c.n)
	var queue []int
	for s := range isTarget {
		seen[s] = true
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, pred := range radj[s] {
			if !seen[pred] {
				seen[pred] = true
				queue = append(queue, pred)
			}
		}
	}
	return seen
}

// MeanFirstPassage returns the expected first-passage time into the target
// set from the given initial distribution, together with the probability of
// ever hitting it. When the hitting probability is below one, the returned
// time is the unconditional expectation (time accrued only on hitting
// trajectories).
func (c *Chain) MeanFirstPassage(pi0 []float64, targets []int) (meanTime, hitProb float64, err error) {
	if err := c.checkDistribution(pi0); err != nil {
		return 0, 0, err
	}
	fp, err := c.FirstPassageAnalysis(targets)
	if err != nil {
		return 0, 0, err
	}
	for s, p := range pi0 {
		if p == 0 {
			continue
		}
		meanTime += p * fp.MeanTime[s]
		hitProb += p * fp.HitProbability[s]
	}
	return meanTime, hitProb, nil
}
