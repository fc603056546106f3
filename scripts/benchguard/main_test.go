package main

import (
	"strings"
	"testing"
)

func traj(benches map[string]point) trajectory {
	return trajectory{Benchmarks: benches}
}

// run compares base→cur with default-ish budgets and reports pass/fail
// plus the joined report for message assertions.
func run(t *testing.T, base, cur map[string]point, normalize bool) (string, bool) {
	t.Helper()
	lines, failed := compare(traj(base), traj(cur), limits{
		MaxRegress:      0.20,
		MaxAllocRegress: 0.10,
		Normalize:       normalize,
	})
	return strings.Join(lines, "\n"), failed
}

func TestCleanComparisonPasses(t *testing.T) {
	b := map[string]point{"BenchmarkA": {NsPerOp: 100, BytesPerOp: 64, AllocsOp: 2}}
	n := map[string]point{"BenchmarkA": {NsPerOp: 105, BytesPerOp: 64, AllocsOp: 2}}
	if out, failed := run(t, b, n, false); failed {
		t.Errorf("within-budget comparison failed:\n%s", out)
	}
}

func TestNsRegressionFails(t *testing.T) {
	b := map[string]point{
		"BenchmarkA": {NsPerOp: 100},
		"BenchmarkB": {NsPerOp: 100},
		"BenchmarkC": {NsPerOp: 100},
	}
	n := map[string]point{
		"BenchmarkA": {NsPerOp: 100},
		"BenchmarkB": {NsPerOp: 100},
		"BenchmarkC": {NsPerOp: 150},
	}
	out, failed := run(t, b, n, true)
	if !failed || !strings.Contains(out, "vs peers > 20% budget") {
		t.Errorf("50%% outlier must fail after normalization:\n%s", out)
	}
}

func TestNormalizationCancelsUniformSlowdown(t *testing.T) {
	b := map[string]point{
		"BenchmarkA": {NsPerOp: 100},
		"BenchmarkB": {NsPerOp: 200},
		"BenchmarkC": {NsPerOp: 300},
	}
	// Every benchmark 2x slower: a slower machine, not a regression.
	n := map[string]point{
		"BenchmarkA": {NsPerOp: 200},
		"BenchmarkB": {NsPerOp: 400},
		"BenchmarkC": {NsPerOp: 600},
	}
	if out, failed := run(t, b, n, true); failed {
		t.Errorf("uniform 2x slowdown must normalize away:\n%s", out)
	}
}

func TestAllocsAppearingOnZeroBaselineFails(t *testing.T) {
	b := map[string]point{"BenchmarkHot": {NsPerOp: 100, AllocsOp: 0}}
	n := map[string]point{"BenchmarkHot": {NsPerOp: 100, AllocsOp: 0.01}}
	out, failed := run(t, b, n, false)
	if !failed || !strings.Contains(out, "zero-alloc guarded path") {
		t.Errorf("allocs on a zero baseline must fail:\n%s", out)
	}
}

func TestAllocGrowthOnNonzeroBaselineFails(t *testing.T) {
	b := map[string]point{"BenchmarkA": {NsPerOp: 100, AllocsOp: 10}}
	n := map[string]point{"BenchmarkA": {NsPerOp: 100, AllocsOp: 12}}
	out, failed := run(t, b, n, false)
	if !failed || !strings.Contains(out, "allocs/op 10.00 -> 12.00") {
		t.Errorf("+20%% allocs/op on a nonzero baseline must fail the 10%% budget:\n%s", out)
	}
}

func TestAllocGrowthWithinBudgetPasses(t *testing.T) {
	b := map[string]point{"BenchmarkA": {NsPerOp: 100, AllocsOp: 100}}
	n := map[string]point{"BenchmarkA": {NsPerOp: 100, AllocsOp: 105}}
	if out, failed := run(t, b, n, false); failed {
		t.Errorf("+5%% allocs/op is inside the 10%% budget:\n%s", out)
	}
}

func TestBytesGrowthOnNonzeroBaselineFails(t *testing.T) {
	b := map[string]point{"BenchmarkA": {NsPerOp: 100, BytesPerOp: 1000}}
	n := map[string]point{"BenchmarkA": {NsPerOp: 100, BytesPerOp: 1200}}
	out, failed := run(t, b, n, false)
	if !failed || !strings.Contains(out, "bytes/op 1000 -> 1200") {
		t.Errorf("+20%% bytes/op on a nonzero baseline must fail:\n%s", out)
	}
}

func TestBytesOnZeroBaselineFails(t *testing.T) {
	b := map[string]point{"BenchmarkHot": {NsPerOp: 100, BytesPerOp: 0}}
	n := map[string]point{"BenchmarkHot": {NsPerOp: 100, BytesPerOp: 8}}
	out, failed := run(t, b, n, false)
	if !failed || !strings.Contains(out, "zero-byte guarded path") {
		t.Errorf("bytes on a zero baseline must fail:\n%s", out)
	}
}

func TestAllocRatchetIgnoresNormalization(t *testing.T) {
	// A uniformly slower machine must not excuse allocation growth:
	// counts are hardware-independent.
	b := map[string]point{
		"BenchmarkA": {NsPerOp: 100, AllocsOp: 10},
		"BenchmarkB": {NsPerOp: 100},
		"BenchmarkC": {NsPerOp: 100},
	}
	n := map[string]point{
		"BenchmarkA": {NsPerOp: 200, AllocsOp: 20},
		"BenchmarkB": {NsPerOp: 200},
		"BenchmarkC": {NsPerOp: 200},
	}
	out, failed := run(t, b, n, true)
	if !failed || !strings.Contains(out, "allocs/op") {
		t.Errorf("2x allocs/op must fail even when ns/op normalizes away:\n%s", out)
	}
}

func TestNoCommonBenchmarksFails(t *testing.T) {
	b := map[string]point{"BenchmarkA": {NsPerOp: 100}}
	n := map[string]point{"BenchmarkB": {NsPerOp: 100}}
	if _, failed := run(t, b, n, false); !failed {
		t.Error("disjoint benchmark sets must fail, not silently pass")
	}
}

func TestNewBenchmarkPasses(t *testing.T) {
	b := map[string]point{"BenchmarkA": {NsPerOp: 100}}
	n := map[string]point{
		"BenchmarkA":   {NsPerOp: 100},
		"BenchmarkNew": {NsPerOp: 1e6, BytesPerOp: 4096, AllocsOp: 9},
	}
	out, failed := run(t, b, n, true)
	if failed || !strings.Contains(out, "BenchmarkNew") || !strings.Contains(out, "new (no baseline)") {
		t.Errorf("a benchmark the baseline lacks must be reported, not failed:\n%s", out)
	}
}
