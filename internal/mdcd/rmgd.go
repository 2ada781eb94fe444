package mdcd

import (
	"guardedop/internal/reward"
	"guardedop/internal/san"
	"guardedop/internal/statespace"
)

// RMGd is the dependability reward model of the guarded-operation interval
// (the paper's Figure 6), generated to a tangible state space by the
// scenario generator (Generate).
type RMGd struct {
	Space *statespace.Space

	// Places referenced by the Table 1 reward structures and the
	// simulator. The per-process contamination places are bound only on
	// the paper's two-process model (BuildRMGd); they are nil on other
	// scenarios.
	P1Nctn   *san.Place // P1new state actually contaminated
	P1Octn   *san.Place // P1old state actually contaminated
	P2ctn    *san.Place // P2 state actually contaminated
	DirtyBit *san.Place // shared confidence view: {P2, P1old} potentially contaminated
	Detected *san.Place // an error has been detected (system recovered to normal mode)
	Failure  *san.Place // an undetected erroneous external message escaped (absorbing)

	// Reward-rate vectors of the Table 1 structures, evaluated once over the
	// generated space at build time: the predicates are pure functions of the
	// marking, so re-evaluating them on every solve only burned time.
	vIntH     []float64
	vIntTauH  []float64
	vIntHF    []float64
	vPA1      []float64
	vUndet    []float64
	vDetected []float64
}

// RateVectors returns the prebuilt Table 1 reward-rate vectors, indexed
// by state: the instant-of-time rates intH, pA1 and undetected, the
// interval-of-time rates intTauH and detected, and the failure indicator
// intHF. They exist for assemblers outside the package (the parametric
// layer) that project their own solution representation onto the same
// reward structures. The returned slices are the model's backing arrays;
// callers must not modify them.
func (r *RMGd) RateVectors() (intH, intTauH, intHF, pA1, undetected, detected []float64) {
	return r.vIntH, r.vIntTauH, r.vIntHF, r.vPA1, r.vUndet, r.vDetected
}

// GdOptions relaxes RMGd assumptions for ablation studies.
type GdOptions struct {
	// RecoverySuccess is the probability that error recovery succeeds
	// after a successful detection; the paper assumes 1 ("we anticipate
	// that the system will recover from an error successfully as long as
	// the detection is successful"). A failed recovery is a system
	// failure. Zero means the default of 1.
	RecoverySuccess float64
}

// BuildRMGd constructs and generates the RMGd model under the paper's
// assumptions (perfect recovery given detection).
func BuildRMGd(p Params) (*RMGd, error) {
	return BuildRMGdWithOptions(p, GdOptions{})
}

// BuildRMGdWithOptions constructs RMGd with relaxed assumptions. It runs
// the scenario generator on the paper's two-process scenario
// and binds the per-process places the simulator reads.
//
// The marking encodes the G-OP/normal mode switch through the detected
// place: detected==0 means the system is still in the G-OP mode (P1new and
// P2 active, safeguards on); detected==1 means an error was caught, recovery
// succeeded, and {P1old, P2} run in the normal mode (no safeguards) for the
// remainder of [0, φ]. failure==1 is absorbing.
//
// AT-based validation is instantaneous in this model (paper §5.1): the
// detect/miss alternative is folded into probabilistic cases of the
// message-sending activities, which is the vanishing-marking elimination
// done by hand at the model level.
func BuildRMGdWithOptions(p Params, o GdOptions) (*RMGd, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sc := PaperScenario(p)
	sc.RecoverySuccess = o.RecoverySuccess
	r, g, err := buildGd(&sc)
	if err != nil {
		return nil, err
	}
	r.P1Nctn, r.P1Octn, r.P2ctn = g.ctnN[0], g.ctnO[0], g.ctn[1]
	return r, nil
}

// buildRateVectors evaluates every Table 1 reward structure over the
// generated space once, so per-φ measure evaluation is pure dot products.
func (r *RMGd) buildRateVectors() {
	r.vIntH = r.structIntH().RateVector(r.Space)
	r.vIntTauH = r.structIntTauH().RateVector(r.Space)
	r.vIntHF = r.structIntHF().RateVector(r.Space)
	r.vPA1 = r.structPA1().RateVector(r.Space)
	r.vUndet = reward.NewStructure().Add("!detected && failure", func(mk san.Marking) bool {
		return mk.Get(r.Detected) == 0 && mk.Get(r.Failure) == 1
	}, 1).RateVector(r.Space)
	r.vDetected = reward.NewStructure().Add("detected", func(mk san.Marking) bool {
		return mk.Get(r.Detected) == 1
	}, 1).RateVector(r.Space)
}
