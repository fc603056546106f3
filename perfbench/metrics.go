package main

import (
	"math"
	"regexp"
	"sort"
)

// metric describes one reported number. Host metrics are wall-clock time
// or memory of the simulator process; sim metrics are counts, ratios or
// simulated time of the modelled GS1280 and repeat exactly for a given
// seed and program.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	kind   string // "host" or "sim"
	moves  string // the end-to-end metric and workload this one should move
}

// endToEnd lists what a user of the simulator waits for. Bounds are the
// share of the parent's median by which a metric may worsen before a
// change counts as a regression; BENCHMARK.json repeats them.
var endToEnd = []metric{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25, kind: "host",
		moves: "median host seconds of one pass of the timed phase"},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, kind: "host",
		moves: "median host seconds of one set-up (machines, topologies, networks, references)"},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25, kind: "host",
		moves: "GUPS updates, delivered packets, or experiment units per host second"},
	{name: "unit_ms_p50", unit: "ms", better: "lower", bound: 0.25, kind: "host",
		moves: "median host ms per unit, pooled over passes"},
	{name: "unit_ms_p90", unit: "ms", better: "lower", bound: 0.25, kind: "host",
		moves: "p90 host ms per unit, reported only with >=10 samples beyond it"},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.05, kind: "host",
		moves: "median heap MB allocated per pass of the timed phase (TotalAlloc delta)"},
	{name: "ok_frac", unit: "frac", better: "higher", bound: 0.01, kind: "host",
		moves: "units whose outputs passed their check / units attempted"},
}

// quickIDs is the quick suite, in paper order. Each id gets a per-layer
// work_ms metric.
var quickIDs = []string{
	"fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
	"fig12", "fig13", "fig14", "fig15", "tab1", "fig16x17", "fig18", "fig19",
	"fig20", "fig21", "fig22", "fig23", "fig24", "fig25", "fig26", "fig27",
	"fig28", "satur-uniform", "satur-transpose", "satur-hotspot",
	"degraded-satur", "degraded-map", "tail-satur", "tail-degraded",
	"tail-miss", "flaky-satur", "flaky-quarantine", "ablation",
}

const (
	onQuick = "wall_s on paper-quick"
	onGUPS  = "ops_per_s on gups-32p"
	onSatur = "ops_per_s on satur-64p"
	onBoth  = "ops_per_s on gups-32p and satur-64p"
)

// perLayer lists one number per layer (module) from the traced passes.
// A metric a workload does not exercise reads 0 there.
var perLayer = func() []metric {
	ms := []metric{
		{name: "runner.overhead_ms", unit: "ms", better: "lower", kind: "host", moves: onQuick},
		{name: "runner.units", unit: "count", better: "higher", kind: "sim", moves: onQuick},
	}
	for _, id := range quickIDs {
		ms = append(ms, metric{name: "experiments." + id + ".work_ms", unit: "ms", better: "lower",
			kind: "host", moves: "wall_s and alloc_mb on paper-quick"})
	}
	return append(ms, []metric{
		{name: "experiments.unit_ms_max", unit: "ms", better: "lower", kind: "host",
			moves: "-j N critical path of paper-quick (not timed here)"},
		{name: "machine.build_ms", unit: "ms", better: "lower", kind: "host", moves: "setup_s on gups-32p"},
		{name: "machine.build_alloc_mb", unit: "MB", better: "lower", kind: "host", moves: "setup_s on gups-32p"},
		{name: "topology.build_ms", unit: "ms", better: "lower", kind: "host", moves: "setup_s on satur-64p"},
		{name: "topology.mask_ms", unit: "ms", better: "lower", kind: "host", moves: "setup_s on satur-64p"},
		{name: "network.build_ms", unit: "ms", better: "lower", kind: "host", moves: "setup_s on satur-64p"},
		{name: "sim.events", unit: "count", better: "lower", kind: "sim", moves: onBoth},
		{name: "sim.run_ms", unit: "ms", better: "lower", kind: "host", moves: onBoth},
		{name: "sim.ns_per_event", unit: "ns", better: "lower", kind: "host", moves: onBoth},
		{name: "traffic.run_ms", unit: "ms", better: "lower", kind: "host", moves: onSatur},
		{name: "traffic.accepted_frac", unit: "frac", better: "higher", kind: "sim", moves: onSatur},
		{name: "traffic.stalled", unit: "count", better: "lower", kind: "sim", moves: onSatur},
		{name: "network.injected", unit: "count", better: "higher", kind: "sim", moves: onSatur},
		{name: "network.delivered", unit: "count", better: "higher", kind: "sim", moves: onSatur},
		{name: "network.peak_queued", unit: "count", better: "lower", kind: "sim", moves: onSatur},
		{name: "network.reroutes", unit: "count", better: "lower", kind: "sim", moves: onSatur},
		{name: "network.pkt_lat_p50_ns", unit: "sim_ns", better: "lower", kind: "sim", moves: onSatur},
		{name: "network.pkt_lat_p99_ns", unit: "sim_ns", better: "lower", kind: "sim", moves: onSatur},
		{name: "cpu.ops", unit: "count", better: "higher", kind: "sim", moves: onGUPS},
		{name: "coherence.misses", unit: "count", better: "lower", kind: "sim", moves: onGUPS},
		{name: "coherence.read_dirty", unit: "count", better: "lower", kind: "sim", moves: onGUPS},
		{name: "coherence.naks", unit: "count", better: "lower", kind: "sim", moves: onGUPS},
		{name: "coherence.retries", unit: "count", better: "lower", kind: "sim", moves: onGUPS},
		{name: "coherence.retry_frac", unit: "frac", better: "lower", kind: "sim", moves: onGUPS},
		{name: "coherence.victims", unit: "count", better: "lower", kind: "sim", moves: onGUPS},
		{name: "coherence.upgrades", unit: "count", better: "lower", kind: "sim", moves: onGUPS},
		{name: "coherence.miss_lat_p50_ns", unit: "sim_ns", better: "lower", kind: "sim", moves: onGUPS},
		{name: "coherence.miss_lat_p99_ns", unit: "sim_ns", better: "lower", kind: "sim", moves: onGUPS},
		{name: "coherence.check_ms", unit: "ms", better: "lower", kind: "host", moves: onGUPS},
		{name: "cache.l1_hit_ratio", unit: "frac", better: "higher", kind: "sim", moves: onGUPS},
		{name: "cache.l2_hit_ratio", unit: "frac", better: "higher", kind: "sim", moves: onGUPS},
		{name: "memctrl.reads", unit: "count", better: "lower", kind: "sim", moves: onGUPS},
		{name: "memctrl.writes", unit: "count", better: "lower", kind: "sim", moves: onGUPS},
		{name: "memctrl.page_hit_ratio", unit: "frac", better: "higher", kind: "sim", moves: onGUPS},
		{name: "memctrl.util", unit: "frac", better: "higher", kind: "sim", moves: onGUPS},
		{name: "runtime.gc_cycles", unit: "count", better: "lower", kind: "host", moves: "wall_s and alloc_mb on paper-quick"},
		{name: "runtime.gc_cpu_s", unit: "s", better: "lower", kind: "host", moves: "wall_s and alloc_mb on paper-quick"},
		{name: "runtime.heap_sys_mb", unit: "MB", better: "lower", kind: "host", moves: "wall_s and alloc_mb on paper-quick"},
		{name: "runtime.peak_rss_mb", unit: "MB", better: "lower", kind: "host", moves: "wall_s and alloc_mb on paper-quick"},
		{name: "trace.overhead_frac", unit: "frac", better: "lower", kind: "host",
			moves: "traced wall_s / untraced wall_s - 1 (no end-to-end effect)"},
	}...)
}()

// metricName is the grammar every reported name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// minBeyond is how many samples must lie above a reported tail
// percentile; with fewer it is one noisy sample wide.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of samples (0 < p <= 1)
// and how many samples lie beyond that rank.
func percentile(samples []float64, p float64) (v float64, beyond int) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n - rank
}

// median is the midpoint of samples (the mean of the two middle ones for
// an even count), or 0 for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
