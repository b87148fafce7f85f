package ftspanner

import (
	"math/rand"
	"testing"
)

// BenchmarkBuild times the default Build on a 160k-vertex weighted lattice
// (the benchmark's road_hot graph). It is the CPU-profile source for the
// build path:
//
//	go test -run '^$' -bench BenchmarkBuild -benchtime 10x -cpuprofile build_cpu.pprof .
//
// End-to-end numbers come from `go run ./benchmark`, not from here.
func BenchmarkBuild(b *testing.B) {
	g, err := LatticeGraph(rand.New(rand.NewSource(1)), 400, 400, 6400, true)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{K: 2, F: 1}
	for b.Loop() {
		if _, _, err := Build(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}
