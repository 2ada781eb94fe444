package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()

	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	runErr := fn()
	w.Close()
	out := <-done
	return out, runErr
}

func TestDumpRMGd(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-model", "rmgd"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"model Gd:paper-baseline", "P1.ctnN", "detected", "absorbing states", "int_h"} {
		if !strings.Contains(out, want) {
			t.Errorf("rmgd dump missing %q", want)
		}
	}
}

func TestDumpRMGp(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-model", "rmgp"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"model Gp:paper-baseline", "P1.sext", "1-rho1", "1-rho2"} {
		if !strings.Contains(out, want) {
			t.Errorf("rmgp dump missing %q", want)
		}
	}
}

func TestDumpRMNdWithMu(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-model", "rmnd", "-mu1", "1e-8"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "model Nd(new):paper-baseline") {
		t.Errorf("rmnd dump incomplete:\n%s", out)
	}
}

func TestDumpUnknownModel(t *testing.T) {
	if _, err := capture(t, func() error { return run([]string{"-model", "wat"}) }); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestDumpDotModes(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-model", "rmnd", "-dot", "san"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph \"Nd(new):paper-baseline\"") {
		t.Errorf("san dot output wrong:\n%s", out)
	}
	out, err = capture(t, func() error { return run([]string{"-model", "rmnd", "-dot", "space"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph \"Nd(new):paper-baseline-statespace\"") {
		t.Errorf("space dot output wrong:\n%s", out)
	}
	if _, err := capture(t, func() error { return run([]string{"-dot", "bogus"}) }); err == nil {
		t.Error("unknown dot mode accepted")
	}
}

func TestDumpScenarioSpec(t *testing.T) {
	spec := filepath.Join("..", "..", "examples", "scenarios", "three-node.json")
	out, err := capture(t, func() error { return run([]string{"-spec", spec, "-part", "gd"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"model Gd:three-node", "P3.ctn", "detected", "int_h"} {
		if !strings.Contains(out, want) {
			t.Errorf("scenario gd dump missing %q", want)
		}
	}
	out, err = capture(t, func() error { return run([]string{"-spec", spec, "-part", "gp", "-dot", "san"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph \"Gp:three-node\"") {
		t.Errorf("scenario gp dot output wrong:\n%s", out)
	}
	if _, err := capture(t, func() error { return run([]string{"-spec", spec, "-part", "wat"}) }); err == nil {
		t.Error("unknown -part accepted")
	}
}
