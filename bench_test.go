package repro

// One sub-benchmark per registered experiment — every table and figure of
// the dissertation's evaluation sections and every fault/soak family. Each
// regenerates its artifact on the simulated cluster and prints the measured
// series (first iteration only; repeat iterations, if the benchmark
// framework requests them, run silently). `go test -bench=. -benchmem`
// therefore reproduces the whole evaluation; cmd/repro runs individual
// experiments.

import (
	"io"
	"os"
	"testing"

	"repro/internal/bench"
)

func BenchmarkExperiment(b *testing.B) {
	for _, e := range bench.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := io.Writer(io.Discard)
				if i == 0 {
					w = os.Stdout
				}
				e.Run(w)
			}
		})
	}
}
