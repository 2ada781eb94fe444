package mdcd

import (
	"context"
	"errors"
	"math"
	"net/http"
	"reflect"
	"testing"

	"guardedop/internal/robust"
)

func TestDefaultParamsMatchTable3(t *testing.T) {
	p := DefaultParams()
	if p.Theta != 10000 || p.Lambda != 1200 || p.MuNew != 1e-4 || p.MuOld != 1e-8 ||
		p.Coverage != 0.95 || p.PExt != 0.1 || p.Alpha != 6000 || p.Beta != 6000 {
		t.Errorf("DefaultParams = %+v does not match Table 3", p)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
}

// TestParamsValidation covers every field Validate rejects: each
// rejection must be a typed robust.ErrInvariant, which the serving layer
// answers with 422 rather than 500.
func TestParamsValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero theta", func(p *Params) { p.Theta = 0 }},
		{"infinite theta", func(p *Params) { p.Theta = math.Inf(1) }},
		{"zero lambda", func(p *Params) { p.Lambda = 0 }},
		{"negative lambda", func(p *Params) { p.Lambda = -1 }},
		{"NaN muNew", func(p *Params) { p.MuNew = math.NaN() }},
		{"negative muNew", func(p *Params) { p.MuNew = -1e-4 }},
		{"infinite muOld", func(p *Params) { p.MuOld = math.Inf(1) }},
		{"negative muOld", func(p *Params) { p.MuOld = -1e-8 }},
		{"infinite alpha", func(p *Params) { p.Alpha = math.Inf(1) }},
		{"zero alpha", func(p *Params) { p.Alpha = 0 }},
		{"zero beta", func(p *Params) { p.Beta = 0 }},
		{"NaN beta", func(p *Params) { p.Beta = math.NaN() }},
		{"coverage above one", func(p *Params) { p.Coverage = 1.5 }},
		{"negative coverage", func(p *Params) { p.Coverage = -0.1 }},
		{"NaN coverage", func(p *Params) { p.Coverage = math.NaN() }},
		{"zero pext", func(p *Params) { p.PExt = 0 }},
		{"pext above one", func(p *Params) { p.PExt = 1.01 }},
		{"NaN pext", func(p *Params) { p.PExt = math.NaN() }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			tc.mutate(&p)
			err := p.Validate()
			if err == nil {
				t.Fatal("invalid params accepted")
			}
			if !errors.Is(err, robust.ErrInvariant) {
				t.Errorf("error %v does not wrap robust.ErrInvariant", err)
			}
			if got := robust.HTTPStatus(err); got != http.StatusUnprocessableEntity {
				t.Errorf("HTTPStatus = %d, want %d", got, http.StatusUnprocessableEntity)
			}
		})
	}
}

// --- RMGd ---------------------------------------------------------------

func TestRMGdStateSpaceIsSmallAndValid(t *testing.T) {
	gd, err := BuildRMGd(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	n := gd.Space.NumStates()
	if n < 10 || n > 60 {
		t.Errorf("RMGd has %d states, expected a few tens", n)
	}
	if len(gd.Space.Chain.AbsorbingStates()) == 0 {
		t.Error("RMGd must have absorbing failure states")
	}
}

// The four Table 1 instant-of-time measures partition the state space at
// any phi, so they must sum to one.
func TestRMGdMeasurePartition(t *testing.T) {
	gd, err := BuildRMGd(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, phi := range []float64{0, 100, 1000, 5000, 10000} {
		m, err := gd.MeasuresContext(context.Background(), phi)
		if err != nil {
			t.Fatal(err)
		}
		sum := m.PA1 + m.IntH + m.IntHF + m.PUndetectedFailure
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("phi=%v: partition sums to %.12f", phi, sum)
		}
	}
}

// With MuOld negligible, P(X'_phi in A'_1) is essentially the probability
// that P1new's fault has not manifested: exp(-MuNew*phi).
func TestRMGdPA1MatchesExponential(t *testing.T) {
	p := DefaultParams()
	gd, err := BuildRMGd(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, phi := range []float64{1000, 5000, 9000} {
		m, err := gd.MeasuresContext(context.Background(), phi)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Exp(-p.MuNew * phi)
		if math.Abs(m.PA1-want) > 2e-3 {
			t.Errorf("phi=%v: PA1 = %.6f, want ≈ %.6f", phi, m.PA1, want)
		}
	}
}

// Detection probability ≈ coverage × P(error manifested), because message
// sending is orders of magnitude faster than fault manifestation.
func TestRMGdDetectionSplitByCoverage(t *testing.T) {
	p := DefaultParams()
	gd, err := BuildRMGd(p)
	if err != nil {
		t.Fatal(err)
	}
	phi := 7000.0
	m, err := gd.MeasuresContext(context.Background(), phi)
	if err != nil {
		t.Fatal(err)
	}
	pErr := 1 - math.Exp(-p.MuNew*phi)
	if math.Abs(m.IntH-p.Coverage*pErr) > 5e-3 {
		t.Errorf("IntH = %.5f, want ≈ c·P(err) = %.5f", m.IntH, p.Coverage*pErr)
	}
	if math.Abs(m.PUndetectedFailure-(1-p.Coverage)*pErr) > 5e-3 {
		t.Errorf("P(undetected failure) = %.5f, want ≈ (1-c)·P(err) = %.5f",
			m.PUndetectedFailure, (1-p.Coverage)*pErr)
	}
	// Post-recovery failure within phi is driven by fresh MuOld faults: tiny.
	if m.IntHF > 1e-3 {
		t.Errorf("IntHF = %.6f, want ≈ 0 for MuOld=1e-8", m.IntHF)
	}
}

func TestRMGdMeasuresMonotoneInPhi(t *testing.T) {
	gd, err := BuildRMGd(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	prevH, prevA1 := -1.0, 2.0
	for _, phi := range []float64{0, 1000, 3000, 6000, 10000} {
		m, err := gd.MeasuresContext(context.Background(), phi)
		if err != nil {
			t.Fatal(err)
		}
		if m.IntH < prevH-1e-12 {
			t.Errorf("IntH not non-decreasing at phi=%v", phi)
		}
		if m.PA1 > prevA1+1e-12 {
			t.Errorf("PA1 not non-increasing at phi=%v", phi)
		}
		prevH, prevA1 = m.IntH, m.PA1
	}
}

func TestRMGdAtPhiZero(t *testing.T) {
	gd, err := BuildRMGd(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	m, err := gd.MeasuresContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.PA1 != 1 || m.IntH != 0 || m.IntTauH != 0 || m.IntHF != 0 {
		t.Errorf("phi=0 measures = %+v, want PA1=1 and zeros", m)
	}
}

// The paper's Eq. (18) reward structure accumulates P(A'_2) - P(A'_4): the
// expected sojourn before the first error event. With the fast-message
// approximation that is (1 - exp(-MuNew*phi))/MuNew.
func TestRMGdIntTauHMatchesClosedForm(t *testing.T) {
	p := DefaultParams()
	gd, err := BuildRMGd(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, phi := range []float64{2000, 7000} {
		m, err := gd.MeasuresContext(context.Background(), phi)
		if err != nil {
			t.Fatal(err)
		}
		want := (1 - math.Exp(-p.MuNew*phi)) / p.MuNew
		if math.Abs(m.IntTauH-want) > 0.01*want {
			t.Errorf("phi=%v: IntTauH = %.1f, want ≈ %.1f", phi, m.IntTauH, want)
		}
	}
}

// Full coverage means undetected failures can only come from the
// "considered clean but contaminated" path, which needs a MuOld self-fault:
// essentially zero.
func TestRMGdFullCoverageEliminatesUndetectedFailure(t *testing.T) {
	p := DefaultParams()
	p.Coverage = 1
	gd, err := BuildRMGd(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := gd.MeasuresContext(context.Background(), 8000)
	if err != nil {
		t.Fatal(err)
	}
	if m.PUndetectedFailure > 1e-3 {
		t.Errorf("P(undetected failure) = %.6f with c=1, want ≈ 0", m.PUndetectedFailure)
	}
}

// With zero coverage every manifested error ends in failure: no detections.
func TestRMGdZeroCoverageNeverDetects(t *testing.T) {
	p := DefaultParams()
	p.Coverage = 0
	gd, err := BuildRMGd(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := gd.MeasuresContext(context.Background(), 8000)
	if err != nil {
		t.Fatal(err)
	}
	if m.IntH != 0 || m.IntHF != 0 {
		t.Errorf("detections with c=0: IntH=%v IntHF=%v", m.IntH, m.IntHF)
	}
	pErr := 1 - math.Exp(-p.MuNew*8000)
	if math.Abs(m.PUndetectedFailure-pErr) > 5e-3 {
		t.Errorf("P(failure) = %.5f, want ≈ %.5f", m.PUndetectedFailure, pErr)
	}
}

// --- RMGp ---------------------------------------------------------------

// The paper's Table 2 derived parameters: alpha=beta=6000 gives
// (rho1, rho2) ≈ (0.98, 0.95); alpha=beta=2500 gives ≈ (0.95, 0.90).
func TestRMGpRhoMatchesPaper(t *testing.T) {
	tests := []struct {
		alphaBeta          float64
		wantRho1, wantRho2 float64
		tolRho1, tolRho2   float64
	}{
		{6000, 0.98, 0.95, 0.005, 0.01},
		{2500, 0.95, 0.90, 0.005, 0.01},
	}
	for _, tc := range tests {
		p := DefaultParams()
		p.Alpha, p.Beta = tc.alphaBeta, tc.alphaBeta
		gp, err := BuildRMGp(p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := gp.Measures()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.Rho1-tc.wantRho1) > tc.tolRho1 {
			t.Errorf("alpha=beta=%v: rho1 = %.4f, want %.2f±%.3f", tc.alphaBeta, m.Rho1, tc.wantRho1, tc.tolRho1)
		}
		if math.Abs(m.Rho2-tc.wantRho2) > tc.tolRho2 {
			t.Errorf("alpha=beta=%v: rho2 = %.4f, want %.2f±%.3f", tc.alphaBeta, m.Rho2, tc.wantRho2, tc.tolRho2)
		}
	}
}

func TestRMGpRhoBoundsAndOrdering(t *testing.T) {
	gp, err := BuildRMGp(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	m, err := gp.Measures()
	if err != nil {
		t.Fatal(err)
	}
	if m.Rho1 <= 0 || m.Rho1 >= 1 || m.Rho2 <= 0 || m.Rho2 >= 1 {
		t.Errorf("rho out of (0,1): %+v", m)
	}
	// P2 pays for checkpoints and ATs; P1new only for ATs. So rho1 > rho2.
	if m.Rho1 <= m.Rho2 {
		t.Errorf("expected rho1 > rho2, got %+v", m)
	}
}

// Overheads vanish as safeguard actions become infinitely fast.
func TestRMGpFastSafeguardsGiveNoOverhead(t *testing.T) {
	p := DefaultParams()
	p.Alpha, p.Beta = 1e9, 1e9
	gp, err := BuildRMGp(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := gp.Measures()
	if err != nil {
		t.Fatal(err)
	}
	if m.Rho1 < 0.9999 || m.Rho2 < 0.9999 {
		t.Errorf("instant safeguards should give rho ≈ 1, got %+v", m)
	}
}

// Overhead grows as AT/checkpoint completion slows down.
func TestRMGpOverheadMonotoneInAlphaBeta(t *testing.T) {
	prevRho1, prevRho2 := 0.0, 0.0
	for _, ab := range []float64{1000, 2500, 6000, 20000} {
		p := DefaultParams()
		p.Alpha, p.Beta = ab, ab
		gp, err := BuildRMGp(p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := gp.Measures()
		if err != nil {
			t.Fatal(err)
		}
		if m.Rho1 < prevRho1 || m.Rho2 < prevRho2 {
			t.Errorf("rho not monotone at alpha=beta=%v: %+v", ab, m)
		}
		prevRho1, prevRho2 = m.Rho1, m.Rho2
	}
}

// rho1 admits a closed-form renewal check: P1new's cycle is an exponential
// think time 1/lambda plus, with probability pext, an AT of mean 1/alpha.
func TestRMGpRho1MatchesRenewalFormula(t *testing.T) {
	p := DefaultParams()
	gp, err := BuildRMGp(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := gp.Measures()
	if err != nil {
		t.Fatal(err)
	}
	atShare := p.PExt / p.Alpha
	want := 1 - atShare/(1/p.Lambda+atShare)
	if math.Abs(m.Rho1-want) > 1e-9 {
		t.Errorf("rho1 = %.10f, want renewal value %.10f", m.Rho1, want)
	}
}

// --- RMNd ---------------------------------------------------------------

func TestRMNdNoFailureProbability(t *testing.T) {
	p := DefaultParams()
	nd, err := BuildRMNd(p, p.MuNew)
	if err != nil {
		t.Fatal(err)
	}
	// With lambda >> mu the time to failure is dominated by the first fault
	// manifestation of either process: rate ≈ MuNew + MuOld.
	for _, tt := range []float64{1000, 5000, 10000} {
		got, err := nd.NoFailureProbabilityContext(context.Background(), tt)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Exp(-(p.MuNew + p.MuOld) * tt)
		if math.Abs(got-want) > 3e-3 {
			t.Errorf("t=%v: P(no failure) = %.6f, want ≈ %.6f", tt, got, want)
		}
	}
}

func TestRMNdOldVersionIsReliable(t *testing.T) {
	p := DefaultParams()
	nd, err := BuildRMNd(p, p.MuOld)
	if err != nil {
		t.Fatal(err)
	}
	got, err := nd.NoFailureProbabilityContext(context.Background(), 10000)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.999 {
		t.Errorf("P(no failure, old pair, 10^4 h) = %.6f, want ≈ 1", got)
	}
}

func TestRMNdZeroTime(t *testing.T) {
	p := DefaultParams()
	nd, err := BuildRMNd(p, p.MuNew)
	if err != nil {
		t.Fatal(err)
	}
	got, err := nd.NoFailureProbabilityContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("P(no failure at 0) = %v, want 1", got)
	}
}

func TestRMNdRejectsBadMu(t *testing.T) {
	if _, err := BuildRMNd(DefaultParams(), math.NaN()); err == nil {
		t.Error("NaN mu1 accepted")
	}
	if _, err := BuildRMNd(DefaultParams(), -1); err == nil {
		t.Error("negative mu1 accepted")
	}
}

func TestBuildersRejectInvalidParams(t *testing.T) {
	bad := DefaultParams()
	bad.Theta = -1
	if _, err := BuildRMGd(bad); err == nil {
		t.Error("BuildRMGd accepted invalid params")
	}
	if _, err := BuildRMGp(bad); err == nil {
		t.Error("BuildRMGp accepted invalid params")
	}
	if _, err := BuildRMNd(bad, 1e-4); err == nil {
		t.Error("BuildRMNd accepted invalid params")
	}
}

func TestTable1StructuresExposed(t *testing.T) {
	gd, err := BuildRMGd(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	structs := gd.Table1Structures()
	for _, name := range []string{"int_h", "int_tau_h", "int_int_h_f", "P(A1)"} {
		s, ok := structs[name]
		if !ok || s.Len() == 0 {
			t.Errorf("structure %q missing or empty", name)
		}
	}
	// The P(A1) structure must give rate 1 in the initial (error-free)
	// marking and 0 after failure.
	init := gd.Space.Model.InitialMarking()
	if structs["P(A1)"].Rate(init) != 1 {
		t.Error("P(A1) rate in initial marking != 1")
	}
	failed := init.Clone()
	failed.Set(gd.Failure, 1)
	if structs["P(A1)"].Rate(failed) != 0 {
		t.Error("P(A1) rate in failed marking != 0")
	}
}

// Every float64 field of GdMeasures is filled by exactly one entry of
// GdMeasureDefs, and AssembleGdMeasures and Values are inverse maps.
func TestGdMeasureDefsComplete(t *testing.T) {
	typ := reflect.TypeOf(GdMeasures{})
	filledBy := map[string]int{}
	names := map[string]bool{}
	table1 := 0
	for k, d := range GdMeasureDefs {
		if names[d.Name] {
			t.Errorf("measure name %q declared twice", d.Name)
		}
		names[d.Name] = true
		if d.Table1 {
			table1++
		}
		var unit [NumGdMeasures]float64
		unit[k] = 1
		m := reflect.ValueOf(AssembleGdMeasures(0, unit))
		hits := 0
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() || f.Type.Kind() != reflect.Float64 || m.Field(i).Float() == 0 {
				continue
			}
			hits++
			if prev, dup := filledBy[f.Name]; dup {
				t.Errorf("field %s filled by %s and %s", f.Name, GdMeasureDefs[prev].Name, d.Name)
			}
			filledBy[f.Name] = k
		}
		if hits != 1 {
			t.Errorf("measure %s fills %d fields, want 1", d.Name, hits)
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() && f.Type.Kind() == reflect.Float64 {
			if _, ok := filledBy[f.Name]; !ok {
				t.Errorf("field %s is filled by no measure definition", f.Name)
			}
		}
	}
	if table1 != 4 {
		t.Errorf("%d Table 1 measures, want 4", table1)
	}
	v := [NumGdMeasures]float64{1, 2, 3, 4, 5, 6}
	m := AssembleGdMeasures(7, v)
	if m.Values() != v || m.phi != 7 {
		t.Errorf("assemble/values round trip: %v (phi %g), want %v (phi 7)", m.Values(), m.phi, v)
	}
}

func TestGdOptionsValidation(t *testing.T) {
	if _, err := BuildRMGdWithOptions(DefaultParams(), GdOptions{RecoverySuccess: -0.1}); err == nil {
		t.Error("negative RecoverySuccess accepted")
	}
	if _, err := BuildRMGdWithOptions(DefaultParams(), GdOptions{RecoverySuccess: 1.1}); err == nil {
		t.Error("RecoverySuccess > 1 accepted")
	}
	// Zero means the paper's default of 1: measures must match BuildRMGd.
	a, err := BuildRMGd(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildRMGdWithOptions(DefaultParams(), GdOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ma, err := a.MeasuresContext(context.Background(), 5000)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := b.MeasuresContext(context.Background(), 5000)
	if err != nil {
		t.Fatal(err)
	}
	if ma.IntH != mb.IntH || ma.PA1 != mb.PA1 {
		t.Errorf("zero options differ from default build: %+v vs %+v", ma, mb)
	}
}
