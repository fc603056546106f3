package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestP90NeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		report bool
		p90    float64
	}{{n: 99, report: false}, {n: 100, report: true, p90: 90}, {n: 137, report: true, p90: 124}} {
		v, _ := endToEndValues([]*pass{{wall: 1, units: samples(tc.n)}}, tc.n, 0)
		got, ok := v["unit_ms_p90"]
		if ok != tc.report || got != tc.p90 {
			t.Errorf("n=%d: unit_ms_p90 = %v (reported %v), want %v (reported %v)", tc.n, got, ok, tc.p90, tc.report)
		}
		if _, ok := v["unit_ms_p50"]; !ok {
			t.Errorf("n=%d: the median is always reported", tc.n)
		}
	}
	if v, beyond := percentile([]float64{5}, 0.5); v != 5 || beyond != 0 {
		t.Errorf("percentile of one sample = %v, %d beyond", v, beyond)
	}
}

func TestDigestMismatchFailsUnits(t *testing.T) {
	p := &pass{attempted: 20, wall: 1, digests: map[string]string{"sim": "aaaa"}}
	checkReference(p, "test", map[string]string{"sim": "aaaa"})
	if p.failed != 0 {
		t.Fatalf("matching digest failed %d units", p.failed)
	}
	checkReference(p, "test", nil)
	if p.failed != 0 {
		t.Fatalf("no reference failed %d units", p.failed)
	}
	checkReference(p, "test", map[string]string{"sim": "bbbb"})
	if p.failed != 20 {
		t.Fatalf("mismatched digest failed %d of 20 units", p.failed)
	}
	v, _ := endToEndValues([]*pass{p}, p.attempted, p.failed)
	if v["ok_frac"] != 0 {
		t.Errorf("ok_frac = %v after a digest mismatch, want 0", v["ok_frac"])
	}
}

// fakeWorkload runs units that each take about a millisecond. Pass k's
// digest is digests(k), and its phase panics after panicAt units when
// panicAt > 0.
func fakeWorkload(digests func(k int) string, panicAt int) *workload {
	k := 0
	return &workload{name: "fake", nominal: time.Second, setup: func(passEnv) (func(*pass), error) {
		return func(p *pass) {
			k++
			start := time.Now()
			for i := 0; i < 4; i++ {
				if panicAt > 0 && i == panicAt {
					panic("boom")
				}
				time.Sleep(time.Millisecond)
				p.units = append(p.units, 1)
				p.attempted++
			}
			p.wall = time.Since(start).Seconds()
			p.ops = 4
			p.digests = map[string]string{"sim": digests(k)}
		}, nil
	}}
}

func TestPassesMustAgree(t *testing.T) {
	same := measure(fakeWorkload(func(int) string { return "x" }, 0), passEnv{root: ".", seed: 1}, 3, false)
	if !same.correct || same.failed != 0 || same.attempted != 12 || same.values["ok_frac"] != 1 {
		t.Fatalf("identical passes: correct=%v attempted=%d failed=%d ok_frac=%v",
			same.correct, same.attempted, same.failed, same.values["ok_frac"])
	}
	// A traced pass that disagrees with the untraced one fails its units.
	diff := measure(fakeWorkload(func(k int) string { return string(rune('a' + k)) }, 0), passEnv{root: ".", seed: 1}, 1, true)
	if diff.correct || diff.failed != 4 || diff.attempted != 8 {
		t.Fatalf("disagreeing passes: correct=%v attempted=%d failed=%d", diff.correct, diff.attempted, diff.failed)
	}
}

func TestPanicCountsAsFailed(t *testing.T) {
	res := measure(fakeWorkload(func(int) string { return "x" }, 2), passEnv{root: ".", seed: 1}, 1, false)
	// Two units finished before the panic and one was running: all three
	// were attempted and none can be checked.
	if res.correct || res.attempted != 3 || res.failed != 3 {
		t.Fatalf("panicking phase: correct=%v attempted=%d failed=%d, want 3 attempted, 3 failed",
			res.correct, res.attempted, res.failed)
	}
	w := &workload{name: "bad-setup", nominal: time.Second, setup: func(passEnv) (func(*pass), error) {
		panic("no machine")
	}}
	if res := measure(w, passEnv{root: ".", seed: 1}, 1, false); res.correct || res.attempted != 1 || res.failed != 1 {
		t.Fatalf("panicking set-up: correct=%v attempted=%d failed=%d", res.correct, res.attempted, res.failed)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a: [10,50) covered once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // clipped to the parent's end
		{Name: "a.1", Parent: 1, Start: 12, End: 18},
		{Name: "other", Parent: -1, Start: 200, End: 205},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	res := measure(fakeWorkload(func(int) string { return "x" }, 0), passEnv{root: ".", seed: 1}, 2, true)
	if !res.correct || res.traced != 1 || len(res.tracers) != 1 {
		t.Fatalf("traced run: correct=%v traced=%d", res.correct, res.traced)
	}
	for _, m := range perLayer {
		if _, ok := res.values[m.name]; !ok {
			t.Errorf("per-layer metric %s missing from a traced run", m.name)
		}
	}
	plain := measure(fakeWorkload(func(int) string { return "x" }, 0), passEnv{root: ".", seed: 1}, 2, false)
	for _, m := range endToEnd {
		if _, ok := plain.values[m.name]; !ok && m.name != "unit_ms_p90" {
			t.Errorf("end-to-end metric %s missing from an untraced run", m.name)
		}
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q breaks the grammar", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric name %q used twice", m.name)
		}
		seen[m.name] = true
		if m.better != "lower" && m.better != "higher" || m.kind != "host" && m.kind != "sim" || m.moves == "" {
			t.Errorf("metric %q: better=%q kind=%q moves=%q", m.name, m.better, m.kind, m.moves)
		}
	}
	for _, bad := range []string{"", "-x", "a b", "a/b", strings.Repeat("x", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("grammar accepts %q", bad)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json, which the
// comparison harness reads, in step with the metrics this program prints.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the program %d/%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || m.Bound != c.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, c)
		}
	}
	for i, m := range spec.PerLayer {
		c := perLayer[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, c)
		}
	}
}
