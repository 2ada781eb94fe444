// Command sandump generates and prints the state space of one of the three
// SAN reward models (RMGd, RMGp, RMNd): the tangible markings, the CTMC
// generator, the initial distribution, and the reward-structure rate
// vectors. It is the debugging view a modeller would use to audit the
// models behind the paper's Figures 6-8.
//
// Usage:
//
//	sandump -model rmgd
//	sandump -model rmgp -alpha 2500 -beta 2500
//	sandump -model rmnd -mu1 1e-8
//	sandump -spec scenario.json -part gd
//
// With -spec, sandump renders one of the models generated from a
// templated N-node scenario (internal/template, docs/TEMPLATES.md)
// instead of the paper's two-process models: -part selects the guarded
// dependability model (gd), a normal-mode model (ndnew, ndold), or the
// joint overhead model (gp, available when it was built exactly).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"guardedop/internal/mdcd"
	"guardedop/internal/reward"
	"guardedop/internal/statespace"
	"guardedop/internal/template"
	"guardedop/internal/textplot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sandump:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sandump", flag.ContinueOnError)
	var (
		model    = fs.String("model", "rmgd", "model to dump: rmgd, rmgp or rmnd")
		specPath = fs.String("spec", "", "dump a generated scenario model instead (JSON spec file; docs/TEMPLATES.md)")
		part     = fs.String("part", "gd", "with -spec: which generated model to dump: gd, ndnew, ndold or gp")
		dotMode  = fs.String("dot", "", "emit Graphviz instead of text: \"san\" for the model structure, \"space\" for the reachability graph")
		mu1      = fs.Float64("mu1", 1e-4, "first-component fault rate for rmnd")
		theta    = fs.Float64("theta", 10000, "time to next upgrade (hours)")
		lambda   = fs.Float64("lambda", 1200, "message-sending rate (1/h)")
		muNew    = fs.Float64("munew", 1e-4, "fault-manifestation rate of the upgraded version (1/h)")
		muOld    = fs.Float64("muold", 1e-8, "fault-manifestation rate of old versions (1/h)")
		coverage = fs.Float64("coverage", 0.95, "acceptance-test coverage c")
		pExt     = fs.Float64("pext", 0.1, "probability a message is external")
		alpha    = fs.Float64("alpha", 6000, "AT completion rate (1/h)")
		beta     = fs.Float64("beta", 6000, "checkpoint completion rate (1/h)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := mdcd.Params{
		Theta: *theta, Lambda: *lambda, MuNew: *muNew, MuOld: *muOld,
		Coverage: *coverage, PExt: *pExt, Alpha: *alpha, Beta: *beta,
	}

	var (
		space      *statespace.Space
		structures map[string]*reward.Structure
	)
	if *specPath != "" {
		var err error
		space, structures, err = scenarioSpace(*specPath, *part)
		if err != nil {
			return err
		}
		return render(space, structures, *dotMode)
	}
	switch *model {
	case "rmgd":
		gd, err := mdcd.BuildRMGd(p)
		if err != nil {
			return err
		}
		space = gd.Space
		structures = gd.Table1Structures()
	case "rmgp":
		gp, err := mdcd.BuildRMGp(p)
		if err != nil {
			return err
		}
		space = gp.Space
		structures = map[string]*reward.Structure{
			"1-rho1": gp.Overhead1Structure(),
			"1-rho2": gp.Overhead2Structure(),
		}
	case "rmnd":
		nd, err := mdcd.BuildRMNd(p, *mu1)
		if err != nil {
			return err
		}
		space = nd.Space
		structures = map[string]*reward.Structure{}
	default:
		return fmt.Errorf("unknown model %q (rmgd, rmgp or rmnd)", *model)
	}
	return render(space, structures, *dotMode)
}

// render writes the selected view of a generated space.
func render(space *statespace.Space, structures map[string]*reward.Structure, dotMode string) error {
	switch dotMode {
	case "":
		return dump(space, structures)
	case "san":
		return space.Model.WriteDot(os.Stdout)
	case "space":
		return space.WriteDot(os.Stdout)
	default:
		return fmt.Errorf("unknown -dot mode %q (san or space)", dotMode)
	}
}

// scenarioSpace builds a templated scenario and picks the requested
// generated model out of it.
func scenarioSpace(path, part string) (*statespace.Space, map[string]*reward.Structure, error) {
	spec, err := template.Load(path)
	if err != nil {
		return nil, nil, err
	}
	inst, err := template.Build(context.Background(), spec)
	if err != nil {
		return nil, nil, err
	}
	switch part {
	case "gd":
		return inst.Gd.Space, inst.Gd.Table1Structures(), nil
	case "ndnew":
		return inst.NdNew.Space, map[string]*reward.Structure{}, nil
	case "ndold":
		return inst.NdOld.Space, map[string]*reward.Structure{}, nil
	case "gp":
		if inst.GpSpace == nil {
			return nil, nil, fmt.Errorf("scenario %q solved Gp by mean-field (no joint space to dump); shrink the scenario below the joint-model cap", spec.Name)
		}
		return inst.GpSpace, map[string]*reward.Structure{}, nil
	default:
		return nil, nil, fmt.Errorf("unknown -part %q (gd, ndnew, ndold or gp)", part)
	}
}

func dump(space *statespace.Space, structures map[string]*reward.Structure) error {
	model := space.Model
	fmt.Printf("model %s: %d tangible states, %d transitions\n\n",
		model.Name(), space.NumStates(), space.Chain.Generator().NNZ()-space.NumStates())

	fmt.Println("places:")
	for _, pl := range model.Places() {
		fmt.Printf("  %-12s (initial %d)\n", pl.Name(), space.Model.InitialMarking().Get(pl))
	}
	fmt.Println()

	fmt.Println("activities:")
	for _, a := range model.Activities() {
		fmt.Printf("  %-12s %-13s %d case(s)\n", a.Name(), "timed", len(a.Cases()))
	}
	fmt.Println()

	names := make([]string, 0, len(structures))
	for n := range structures {
		names = append(names, n)
	}
	sort.Strings(names)

	header := []string{"state", "marking", "init"}
	header = append(header, names...)
	rows := [][]string{header}
	rateVectors := make(map[string][]float64, len(structures))
	for _, n := range names {
		rateVectors[n] = structures[n].RateVector(space)
	}
	for i, mk := range space.States {
		row := []string{
			fmt.Sprintf("%d", i),
			mk.Format(model),
			fmt.Sprintf("%.3f", space.Initial[i]),
		}
		for _, n := range names {
			row = append(row, fmt.Sprintf("%g", rateVectors[n][i]))
		}
		rows = append(rows, row)
	}
	fmt.Print(textplot.Table(rows))
	fmt.Println()

	fmt.Println("generator (from -> to : rate):")
	gen := space.Chain.Generator()
	for s := 0; s < space.NumStates(); s++ {
		gen.Row(s, func(c int, v float64) {
			if c != s && v > 0 {
				fmt.Printf("  %3d -> %3d : %g\n", s, c, v)
			}
		})
	}
	abs := space.Chain.AbsorbingStates()
	if len(abs) > 0 {
		fmt.Printf("\nabsorbing states: %v\n", abs)
	}
	fmt.Println("\nmarkings list only places holding tokens; {} is the all-zero marking.")
	fmt.Println("\ndiagnostics:")
	return space.Diagnose().WriteReport(os.Stdout)
}
