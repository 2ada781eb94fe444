package mdcd

import (
	"context"
	"testing"
)

func BenchmarkBuildRMGd(b *testing.B) {
	p := DefaultParams()
	for i := 0; i < b.N; i++ {
		if _, err := BuildRMGd(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildRMGp(b *testing.B) {
	p := DefaultParams()
	for i := 0; i < b.N; i++ {
		if _, err := BuildRMGp(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRMGdMeasures(b *testing.B) {
	gd, err := BuildRMGd(DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gd.MeasuresContext(context.Background(), 7000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRMGpSteadyState(b *testing.B) {
	gp, err := BuildRMGp(DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gp.Measures(); err != nil {
			b.Fatal(err)
		}
	}
}
