package machine

import "testing"

// builtSink keeps the benchmarked constructions observable.
var builtSink Machine

// BenchmarkNewGS320 measures building the 32P GS320 of the fig28
// comparison: 32 CPUs, each with a 64 KB 2-way L1 and a 16 MB
// direct-mapped L2. Cache tag arrays dominate its bytes/op.
func BenchmarkNewGS320(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		builtSink = NewSMP(GS320Config(32))
	}
}

// BenchmarkNewGS1280 measures building a 32P (8x4 torus) GS1280: network,
// coherence engines with their 1.75 MB 7-way L2s, Zboxes and CPUs.
func BenchmarkNewGS1280(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		builtSink = NewGS1280(GS1280Config{W: 8, H: 4})
	}
}
