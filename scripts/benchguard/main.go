// Command benchguard compares two benchmark-trajectory JSON files (the
// shape scripts/benchjson emits) and fails when the new point regresses:
// ns/op worse than -max-regress on any common benchmark, or memory
// behaviour worse than the baseline — allocs/op or bytes/op appearing on
// a zero baseline, or growing past -max-alloc-regress on a nonzero one.
// Allocation counts are deterministic and hardware-independent, so their
// budget is tighter than the timing budget and needs no normalization;
// they are the amortized backing-array churn that rounds to 0 allocs/op
// but still costs bandwidth — exactly what the tightened zero-alloc
// guards watch for. CI's bench-smoke job runs benchguard against the
// checked-in previous-PR file, so a scheduling or pooling regression
// fails the build instead of silently eroding the speed history the
// BENCH_pr<N>.json files track. Benchmarks absent from the baseline are
// listed but never fail the gate.
//
// The baseline file is typically measured on different hardware than
// the CI runner, which scales every benchmark's ns/op by roughly the
// same factor. To keep the gate signal instead of hardware noise,
// per-benchmark ratios are normalized by the median ratio across all
// common benchmarks before the -max-regress budget is applied: a
// uniformly slower machine moves the median, not the spread, while a
// single benchmark regressing against its peers still trips the gate.
// Pass -normalize=false for same-machine comparisons.
//
// Usage:
//
//	benchguard -base BENCH_pr3.json -new BENCH_pr4.json [-max-regress 0.20]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type point struct {
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp float64 `json:"bytes_per_op"`
	AllocsOp   float64 `json:"allocs_per_op"`
}

type trajectory struct {
	PR           int              `json:"pr"`
	Benchmarks   map[string]point `json:"benchmarks"`
	SuiteSeconds float64          `json:"experiments_suite_seconds"`
}

// limits are the comparison budgets.
type limits struct {
	// MaxRegress is the allowed fractional ns/op regression per
	// benchmark, after normalization.
	MaxRegress float64
	// MaxAllocRegress is the allowed fractional growth of a nonzero
	// allocs/op or bytes/op baseline. Allocation counts do not depend on
	// machine speed, so this is deliberately tighter than MaxRegress.
	MaxAllocRegress float64
	// Normalize divides ns/op ratios by their median to cancel
	// machine-speed differences.
	Normalize bool
}

func load(path string) trajectory {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var t trajectory
	if err := json.Unmarshal(raw, &t); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return t
}

// compare evaluates cur against base under lim and returns the report
// lines plus whether any benchmark failed. Split from main so the gate
// logic is unit-tested; main only parses flags, loads files and prints.
func compare(base, cur trajectory, lim limits) (lines []string, failed bool) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		if _, ok := cur.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return []string{"benchguard: no common benchmarks"}, true
	}

	ratios := make(map[string]float64, len(names))
	for _, name := range names {
		b, n := base.Benchmarks[name], cur.Benchmarks[name]
		if b.NsPerOp > 0 {
			ratios[name] = n.NsPerOp / b.NsPerOp
		} else {
			ratios[name] = 1
		}
	}
	scale := 1.0
	if lim.Normalize {
		sorted := make([]float64, 0, len(names))
		for _, name := range names {
			sorted = append(sorted, ratios[name])
		}
		sort.Float64s(sorted)
		scale = sorted[len(sorted)/2]
		if scale <= 0 {
			scale = 1
		}
		lines = append(lines, fmt.Sprintf("benchguard: normalizing by median ns/op ratio %.3f (cross-machine scale)", scale))
	}

	for _, name := range names {
		b, n := base.Benchmarks[name], cur.Benchmarks[name]
		regress := ratios[name]/scale - 1
		status := "ok"
		if regress > lim.MaxRegress {
			status = fmt.Sprintf("FAIL (+%.0f%% vs peers > %.0f%% budget)", regress*100, lim.MaxRegress*100)
			failed = true
		}
		switch {
		case b.AllocsOp == 0 && n.AllocsOp > 0:
			status = fmt.Sprintf("FAIL (%.2f allocs/op on a zero-alloc guarded path)", n.AllocsOp)
			failed = true
		case b.AllocsOp > 0 && n.AllocsOp > b.AllocsOp*(1+lim.MaxAllocRegress):
			status = fmt.Sprintf("FAIL (allocs/op %.2f -> %.2f > %.0f%% budget)", b.AllocsOp, n.AllocsOp, lim.MaxAllocRegress*100)
			failed = true
		}
		switch {
		case b.BytesPerOp == 0 && n.BytesPerOp > 1:
			status = fmt.Sprintf("FAIL (%.0f bytes/op on a zero-byte guarded path)", n.BytesPerOp)
			failed = true
		case b.BytesPerOp > 1 && n.BytesPerOp > b.BytesPerOp*(1+lim.MaxAllocRegress):
			status = fmt.Sprintf("FAIL (bytes/op %.0f -> %.0f > %.0f%% budget)", b.BytesPerOp, n.BytesPerOp, lim.MaxAllocRegress*100)
			failed = true
		}
		lines = append(lines, fmt.Sprintf("benchguard: %-32s %8.1f -> %8.1f ns/op (%+.0f%% vs peers)  %s",
			name, b.NsPerOp, n.NsPerOp, regress*100, status))
	}
	// A benchmark the baseline lacks has nothing to regress against: it
	// is reported, never failed, and the next committed point guards it.
	added := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		lines = append(lines, fmt.Sprintf("benchguard: %-32s %8s -> %8.1f ns/op  new (no baseline)",
			name, "-", cur.Benchmarks[name].NsPerOp))
	}
	if base.SuiteSeconds > 0 && cur.SuiteSeconds > 0 {
		lines = append(lines, fmt.Sprintf("benchguard: experiments suite %.1fs -> %.1fs", base.SuiteSeconds, cur.SuiteSeconds))
	}
	return lines, failed
}

func main() {
	basePath := flag.String("base", "", "baseline trajectory JSON (e.g. the previous PR's)")
	newPath := flag.String("new", "", "freshly measured trajectory JSON")
	maxRegress := flag.Float64("max-regress", 0.20, "allowed fractional ns/op regression per benchmark (after normalization)")
	maxAllocRegress := flag.Float64("max-alloc-regress", 0.10, "allowed fractional allocs/op or bytes/op growth over a nonzero baseline")
	normalize := flag.Bool("normalize", true, "divide per-benchmark ratios by the median ratio to cancel machine-speed differences")
	flag.Parse()
	if *basePath == "" || *newPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	base, cur := load(*basePath), load(*newPath)
	lines, failed := compare(base, cur, limits{
		MaxRegress:      *maxRegress,
		MaxAllocRegress: *maxAllocRegress,
		Normalize:       *normalize,
	})
	for _, l := range lines {
		fmt.Println(l)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchguard: regression against", *basePath)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
