package mdcd

import (
	"fmt"
	"math"
	"testing"
)

// fourNodeScenario is the paper scenario grown to four nodes: P1
// upgraded, P2–P4 plain, all at the paper rates.
func fourNodeScenario() Scenario {
	p := DefaultParams()
	sc := PaperScenario(p)
	sc.Name = "four-node"
	for i := 3; i <= 4; i++ {
		sc.Nodes = append(sc.Nodes, Node{Name: fmt.Sprintf("P%d", i), Lambda: p.Lambda, PExt: p.PExt, MuOld: p.MuOld})
	}
	return sc
}

// TestGenerateReportsEverySpaceOnce pins the one verification step: one
// report per generated space, named as the -modelcheck report names them,
// and none for the joint Gp when the mean-field stand-in replaces it.
func TestGenerateReportsEverySpaceOnce(t *testing.T) {
	m, err := Generate(PaperScenario(DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"RMGd", "RMGp", "RMNd(mu_new)", "RMNd(mu_old)"}
	if len(m.Reports) != len(want) {
		t.Fatalf("got %d reports, want %d", len(m.Reports), len(want))
	}
	for i, rep := range m.Reports {
		if rep.Model != want[i] || !rep.OK() {
			t.Errorf("report %d: %s ok=%v, want %s ok", i, rep.Model, rep.OK(), want[i])
		}
	}
	if got := m.States(); got != 22+36+5+5 {
		t.Errorf("States() = %d, want 68", got)
	}

	sc := PaperScenario(DefaultParams())
	sc.MaxStates = 30 // below the joint Gp's 36 states, above Gd's 22
	mf, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !mf.Gp.MeanField || len(mf.Reports) != 3 || mf.Reports[1].Model != "RMNd(mu_new)" {
		t.Errorf("mean-field scenario: MeanField=%v with %d reports", mf.Gp.MeanField, len(mf.Reports))
	}
}

// TestJointGpSolvesAtScale: the four-node joint Gp (1,296 states) is past
// the dense steady-state limit, so its ρ come from the SOR path. The
// solution must satisfy πQ = 0, and the three identical plain nodes must
// get the same ρ.
func TestJointGpSolvesAtScale(t *testing.T) {
	m, err := Generate(fourNodeScenario())
	if err != nil {
		t.Fatal(err)
	}
	sp := m.Gp.Space
	if m.Gp.MeanField || sp.NumStates() != 1296 {
		t.Fatalf("joint Gp: mean-field %v, %d states, want the 1296-state joint chain", m.Gp.MeanField, sp.NumStates())
	}
	pi, err := sp.Chain.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	residual := make([]float64, len(pi))
	for i := range pi {
		sp.Chain.Generator().Row(i, func(j int, v float64) { residual[j] += pi[i] * v })
	}
	for j, r := range residual {
		if math.Abs(r) > 1e-9 {
			t.Fatalf("(πQ)[%d] = %g, want 0", j, r)
		}
	}
	rhos := m.Gp.Rhos
	for i := 2; i < len(rhos); i++ {
		if math.Abs(rhos[i]-rhos[1]) > 1e-8 {
			t.Errorf("plain-node symmetry broken: rho[%d] = %v, rho[1] = %v", i, rhos[i], rhos[1])
		}
	}
	for i, rho := range rhos {
		if !(rho > 0 && rho < 1) {
			t.Errorf("rho[%d] = %v out of (0, 1)", i, rho)
		}
	}
}
