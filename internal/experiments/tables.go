package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"guardedop/internal/mdcd"
	"guardedop/internal/textplot"
)

// Table1Measures solves the four Table 1 constituent measures in RMGd at
// the given φ values under the base parameters.
func Table1Measures(phis []float64) ([]mdcd.GdMeasures, error) {
	gd, err := mdcd.BuildRMGd(mdcd.DefaultParams())
	if err != nil {
		return nil, err
	}
	out := make([]mdcd.GdMeasures, 0, len(phis))
	for _, phi := range phis {
		m, err := gd.MeasuresContext(context.Background(), phi)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Table2Measures solves the Table 2 overhead measures for both of the
// paper's (α, β) settings.
func Table2Measures() (fast, slow mdcd.GpMeasures, err error) {
	p := mdcd.DefaultParams()
	gpFast, err := mdcd.BuildRMGp(p)
	if err != nil {
		return fast, slow, err
	}
	if fast, err = gpFast.Measures(); err != nil {
		return fast, slow, err
	}
	p.Alpha, p.Beta = 2500, 2500
	gpSlow, err := mdcd.BuildRMGp(p)
	if err != nil {
		return fast, slow, err
	}
	slow, err = gpSlow.Measures()
	return fast, slow, err
}

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Table 1: constituent measures and SAN reward structures in RMGd",
		Paper: "four predicate-rate reward structures over (detected, failure); solved as instant-of-time and accumulated rewards",
		Run: func(w io.Writer) error {
			phis := []float64{1000, 3000, 5000, 7000, 9000, 10000}
			ms, err := Table1Measures(phis)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Table 1 reproduction: RMGd constituent measures (base parameters)")
			fmt.Fprintln(w)
			fmt.Fprintln(w, "Reward structures (predicate -> rate), as published:")
			fmt.Fprint(w, textplot.Table([][]string{
				{"measure", "reward type", "predicate", "rate"},
				{"int h", "instant-of-time at phi", "detected==1 && failure==0", "1"},
				{"int tau*h", "accumulated over [0,phi]", "detected==0", "1"},
				{"", "", "detected==0 && failure==1", "-1"},
				{"int int h*f", "instant-of-time at phi", "detected==1 && failure==1", "1"},
				{"P(X'_phi in A'_1)", "instant-of-time at phi", "detected==0 && failure==0", "1"},
			}))
			fmt.Fprintln(w)
			rows := [][]string{{"phi", "int h", "int tau*h", "int int h*f", "P(A'_1)", "P(undetected fail)", "sum"}}
			for i, phi := range phis {
				m := ms[i]
				rows = append(rows, []string{
					strconv.FormatFloat(phi, 'f', 0, 64),
					strconv.FormatFloat(m.IntH, 'f', 6, 64),
					strconv.FormatFloat(m.IntTauH, 'f', 1, 64),
					strconv.FormatFloat(m.IntHF, 'e', 3, 64),
					strconv.FormatFloat(m.PA1, 'f', 6, 64),
					strconv.FormatFloat(m.PUndetectedFailure, 'f', 6, 64),
					strconv.FormatFloat(m.IntH+m.IntHF+m.PA1+m.PUndetectedFailure, 'f', 6, 64),
				})
			}
			fmt.Fprint(w, textplot.Table(rows))
			fmt.Fprintln(w)
			fmt.Fprintln(w, "check: the four instant-of-time measures partition the state space (sum = 1).")
			return nil
		},
	})

	register(Experiment{
		ID:    "table2",
		Title: "Table 2: constituent measures and SAN reward structures in RMGp",
		Paper: "steady-state overheads; derived parameters rho1=0.98, rho2=0.95 at alpha=beta=6000 and rho1=0.95, rho2=0.90 at alpha=beta=2500",
		Run: func(w io.Writer) error {
			fast, slow, err := Table2Measures()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Table 2 reproduction: RMGp steady-state overhead measures")
			fmt.Fprintln(w)
			fmt.Fprintln(w, "Reward structures (predicate -> rate), as published:")
			fmt.Fprint(w, textplot.Table([][]string{
				{"measure", "reward type", "predicate", "rate"},
				{"1-rho1", "steady-state instant-of-time", "P1nExt==1", "1"},
				{"1-rho2", "steady-state instant-of-time", "(P1nInt==1 && P2DB==0) || (P2Ext==1 && P2DB==1)", "1"},
			}))
			fmt.Fprintln(w)
			fmt.Fprint(w, textplot.Table([][]string{
				{"setting", "rho1 (measured)", "rho1 (paper)", "rho2 (measured)", "rho2 (paper)"},
				{"alpha=beta=6000", fmt.Sprintf("%.4f", fast.Rho1), "0.98", fmt.Sprintf("%.4f", fast.Rho2), "0.95"},
				{"alpha=beta=2500", fmt.Sprintf("%.4f", slow.Rho1), "0.95", fmt.Sprintf("%.4f", slow.Rho2), "0.90"},
			}))
			return nil
		},
	})

	register(Experiment{
		ID:    "table3",
		Title: "Table 3: parameter value assignment",
		Paper: "theta=10000, lambda=1200, mu_new=1e-4, mu_old=1e-8, c=0.95, p_ext=0.1, alpha=6000, beta=6000 (time in hours)",
		Run: func(w io.Writer) error {
			p := mdcd.DefaultParams()
			fmt.Fprintln(w, "Table 3 reproduction: base parameter assignment (time in hours)")
			fmt.Fprintln(w)
			fmt.Fprint(w, textplot.Table([][]string{
				{"theta", "lambda", "mu_new", "mu_old", "c", "p_ext", "alpha", "beta"},
				{
					strconv.FormatFloat(p.Theta, 'g', -1, 64),
					strconv.FormatFloat(p.Lambda, 'g', -1, 64),
					strconv.FormatFloat(p.MuNew, 'g', -1, 64),
					strconv.FormatFloat(p.MuOld, 'g', -1, 64),
					strconv.FormatFloat(p.Coverage, 'g', -1, 64),
					strconv.FormatFloat(p.PExt, 'g', -1, 64),
					strconv.FormatFloat(p.Alpha, 'g', -1, 64),
					strconv.FormatFloat(p.Beta, 'g', -1, 64),
				},
			}))
			fmt.Fprintln(w)
			fmt.Fprintln(w, "lambda=1200 => mean time between message sends is 3 s;")
			fmt.Fprintln(w, "alpha=beta=6000 => mean AT / checkpoint completion time is 600 ms.")
			return nil
		},
	})
}
