// Command perfbench measures the simulator's host cost end to end and
// layer by layer on three workloads: the quick experiment suite
// (paper-quick), 32-CPU GUPS (gups-32p) and 8x8 open-loop torus traffic
// (satur-64p). It drives the public API of each layer from a single
// goroutine, checks every output, and prints one JSON result as its last
// line of standard output:
//
//	bash perfbench/run.sh --workload gups-32p --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics, taken from traced passes that alternate
// with untraced ones, and the spans are written under .bench_build/.
// --list prints every metric with its unit, host or simulated kind, and
// the end-to-end metric it should move. --record prints the reference
// digests that perfbench/reference.json holds.
//
// The model is unvalidated against the paper here: the benchmark checks
// that outputs repeat bit-for-bit, not that they match the GS1280.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// defaultSeed is the seed the reference digests of the seeded workloads
// were recorded at.
const defaultSeed = 1

// Each pass repeats its set-up at least minSetupReps times and for at
// least minSetupTime, and setup_s is the median over every repetition of
// the run: a single set-up of a few milliseconds or less does not repeat
// within a tenth on a shared host, a median over many does.
const (
	minSetupReps = 5
	minSetupTime = 50 * time.Millisecond
)

// pass is one execution of a workload: its set-ups and its timed phase.
type pass struct {
	setups    []float64 // seconds of each set-up repetition
	wall      float64   // seconds of the timed phase: the calls into the program, not the checks
	units     []float64 // host ms of each unit
	attempted int
	failed    int
	ops       float64           // simulated operations completed (see ops_per_s)
	alloc     float64           // MB allocated in the timed phase
	digests   map[string]string // digests of the simulated outputs
	layers    map[string]float64
}

// layer records a per-layer metric.
func (p *pass) layer(name string, v float64) {
	if p.layers == nil {
		p.layers = map[string]float64{}
	}
	p.layers[name] = v
}

// passEnv is what one pass of a workload is run with.
type passEnv struct {
	root string // repository root
	seed uint64
	ref  map[string]string // recorded digests to reproduce; nil when none apply (another seed, or --record)
	tr   *tracer           // nil for an untraced pass
	// audit asks for the checks too slow to repeat every pass. A run
	// audits its first pass and every traced one; the other passes must
	// reproduce the first pass's digests exactly, so they inherit its audit.
	audit bool
}

// workload is one benchmark input. setup builds everything the timed
// phase needs from env.seed and returns that phase; the caller repeats
// and times set-up, then runs the last phase it got once. The phase times
// its own calls into the program into pass.wall and checks their outputs
// untimed.
type workload struct {
	name string
	// nominal is one pass's host time, set-ups and checks included, on
	// the reference host (a 2-core container, go1.24); --seconds /
	// nominal sets the pass count, so both sides of a comparison do the
	// same work.
	nominal time.Duration
	// seeded reports whether the reference digests depend on the seed.
	seeded bool
	setup  func(env passEnv) (func(*pass), error)
}

var workloads = []*workload{
	{name: "paper-quick", nominal: 12 * time.Second, setup: quickSetup},
	{name: "gups-32p", nominal: 2200 * time.Millisecond, seeded: true, setup: gupsSetup},
	{name: "satur-64p", nominal: 2600 * time.Millisecond, seeded: true, setup: saturSetup},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-quick, gups-32p or satur-64p")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "host seconds to measure for (sets the pass count)")
	traceOn := fs.Int("trace", 0, "1 reports per-layer metrics from traced passes; 0 end-to-end metrics")
	root := fs.String("root", ".", "repository root (holds internal/runner/testdata)")
	list := fs.Bool("list", false, "print every metric and exit")
	record := fs.Bool("record", false, "print the reference digests at the default seed and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printCatalog(stdout)
		return 0
	}
	if *record {
		return recordReference(*root, stdout, stderr)
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {paper-quick,gups-32p,satur-64p}, --seconds >= 1, --trace {0,1}\n")
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	wref := ref[w.name]
	if w.seeded && *seed != defaultSeed {
		wref = nil
	}
	if _, err := os.Stat(filepath.Join(*root, "internal", "runner", "testdata")); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v (run from the repository root)\n", err)
		return 1
	}

	res := measure(w, passEnv{root: *root, seed: *seed, ref: wref}, *seconds, *traceOn == 1)
	if res.tracers != nil {
		path := filepath.Join(*root, ".bench_build", "trace", fmt.Sprintf("%s.seed%d.json", w.name, *seed))
		if err := writeSpans(path, res.tracers); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: spans written to %s\n", path)
	}
	printResult(stdout, w.name, *seed, res)
	if !res.correct {
		return 1
	}
	return 0
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// result is one run's outcome, ready to print.
type result struct {
	correct           bool
	attempted, failed int
	values            map[string]float64
	samples           int // units pooled into unit_ms_p50/p90
	passes, traced    int
	tracers           []*tracer
}

// measure runs w's passes. Untraced runs time every pass; traced runs
// alternate untraced and traced passes, taking end-to-end timings from
// the former and per-layer metrics from the latter.
func measure(w *workload, env passEnv, seconds int, traced bool) result {
	passes := int(time.Duration(seconds) * time.Second / w.nominal)
	if passes < 1 {
		passes = 1
	}
	if traced && passes < 2 {
		passes = 2
	}
	origin := time.Now()
	var plain, withTrace []*pass
	var res result
	for i := 0; i < passes; i++ {
		env.tr = nil
		if traced && i%2 == 1 {
			env.tr = newTracer(origin, fmt.Sprintf("%s/seed=%d/pass=%d", w.name, env.seed, i))
			res.tracers = append(res.tracers, env.tr)
		}
		env.audit = i == 0 || env.tr != nil
		p := runPass(w, env)
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d (traced %v): wall %.4f s, %d/%d units failed\n",
			w.name, i, env.tr != nil, p.wall, p.failed, p.attempted)
		if env.tr != nil {
			withTrace = append(withTrace, p)
		} else {
			plain = append(plain, p)
		}
	}
	all := append(append([]*pass(nil), plain...), withTrace...)
	// Every pass ran the same inputs, traced or not, so every pass must
	// produce the same simulated outputs.
	for _, p := range all[1:] {
		if !maps.Equal(p.digests, all[0].digests) {
			p.failed = p.attempted
		}
	}
	for _, p := range all {
		res.attempted += p.attempted
		res.failed += p.failed
	}
	res.correct = res.failed == 0 && res.attempted > 0
	res.passes, res.traced = len(all), len(withTrace)
	if traced {
		res.values = layerValues(withTrace, plain)
	} else {
		res.values, res.samples = endToEndValues(plain, res.attempted, res.failed)
	}
	return res
}

// checkReference fails every unit of p when a digest it produced differs
// from the recorded one; ref nil means nothing was recorded for this seed.
func checkReference(p *pass, name string, ref map[string]string) {
	if ref == nil {
		return
	}
	for k, v := range p.digests {
		if ref[k] != v {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s differs from the recorded digest\n", name, k)
			p.failed = p.attempted
			return
		}
	}
}

// runPass repeats w's set-up, then runs the last set-up's timed phase
// once. A panic or error anywhere fails the pass's units.
func runPass(w *workload, env passEnv) *pass {
	p := &pass{}
	var timed func(*pass)
	runtime.GC() // set-up must not pay for the previous pass's garbage
	for begin := time.Now(); timed == nil; {
		last := len(p.setups) >= minSetupReps-1 && time.Since(begin) >= minSetupTime
		e := env
		if !last {
			e.tr = nil // trace only the set-up whose phase runs
		}
		start := time.Now()
		var phase func(*pass)
		err := protect(func() (err error) {
			phase, err = w.setup(e)
			return err
		})
		p.setups = append(p.setups, time.Since(start).Seconds())
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", w.name, err)
			p.attempted, p.failed = 1, 1
			return p
		}
		if last {
			timed = phase
		}
	}

	runtime.GC() // every pass starts from the same collected heap
	before := readRuntime()
	if err := protect(func() error { timed(p); return nil }); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		p.attempted++ // the unit that was running
		p.failed = p.attempted
	}
	after := readRuntime()
	p.alloc = float64(after.totalAlloc-before.totalAlloc) / 1e6
	if env.tr != nil {
		p.layer("runtime.gc_cycles", float64(after.gcCycles-before.gcCycles))
		p.layer("runtime.gc_cpu_s", after.gcCPU-before.gcCPU)
		p.layer("runtime.heap_sys_mb", float64(after.heapSys)/1e6)
		p.layer("runtime.peak_rss_mb", peakRSSMB())
	}
	return p
}

// protect runs f, turning a panic into an error.
func protect(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

type runtimeSample struct {
	totalAlloc, heapSys, gcCycles uint64
	gcCPU                         float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	var gcCPU float64
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[0].Value.Float64()
	}
	return runtimeSample{totalAlloc: ms.TotalAlloc, heapSys: ms.HeapSys, gcCycles: uint64(ms.NumGC), gcCPU: gcCPU}
}

// peakRSSMB reports the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// endToEndValues aggregates untraced passes into the end-to-end metrics.
// unit_ms_p90 is left out when fewer than minBeyond units lie beyond it.
func endToEndValues(passes []*pass, attempted, failed int) (map[string]float64, int) {
	var walls, setups, rates, allocs, units []float64
	for _, p := range passes {
		walls = append(walls, p.wall)
		setups = append(setups, p.setups...)
		allocs = append(allocs, p.alloc)
		units = append(units, p.units...)
		if p.wall > 0 {
			rates = append(rates, p.ops/p.wall)
		}
	}
	v := map[string]float64{
		"wall_s":    median(walls),
		"setup_s":   median(setups),
		"ops_per_s": median(rates),
		"alloc_mb":  median(allocs),
	}
	if attempted > 0 {
		v["ok_frac"] = float64(attempted-failed) / float64(attempted)
	}
	if len(units) > 0 {
		v["unit_ms_p50"], _ = percentile(units, 0.5)
		if p90, beyond := percentile(units, 0.9); beyond >= minBeyond {
			v["unit_ms_p90"] = p90
		}
	}
	return v, len(units)
}

// layerValues takes each per-layer metric's median over the traced
// passes; a metric no traced pass reported is 0 (the workload does not
// exercise that layer). trace.overhead_frac compares traced and untraced
// pass times.
func layerValues(traced, plain []*pass) map[string]float64 {
	v := map[string]float64{}
	for _, m := range perLayer {
		var xs []float64
		for _, p := range traced {
			if x, ok := p.layers[m.name]; ok {
				xs = append(xs, x)
			}
		}
		v[m.name] = median(xs)
	}
	var tw, pw []float64
	for _, p := range traced {
		tw = append(tw, p.wall)
	}
	for _, p := range plain {
		pw = append(pw, p.wall)
	}
	if base := median(pw); base > 0 {
		v["trace.overhead_frac"] = median(tw)/base - 1
	}
	return v
}

// printResult prints every metric of the run by name, with its unit and
// kind, then the JSON result line.
func printResult(out io.Writer, name string, seed uint64, res result) {
	catalog := endToEnd
	if res.traced > 0 {
		catalog = perLayer
	}
	fmt.Fprintf(out, "workload %s seed %d: %d passes (%d traced), %d units attempted, %d failed\n",
		name, seed, res.passes, res.traced, res.attempted, res.failed)
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]entry{}
	for _, m := range catalog {
		x, ok := res.values[m.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			fmt.Fprintf(out, "  %-40s %14s %-7s %s\n", m.name, "n/a", m.unit, m.kind)
			continue
		}
		note := ""
		if m.name == "unit_ms_p50" || m.name == "unit_ms_p90" {
			note = fmt.Sprintf(" (n=%d)", res.samples)
		}
		fmt.Fprintf(out, "  %-40s %14.6g %-7s %s%s\n", m.name, x, m.unit, m.kind, note)
		ms[m.name] = entry{Value: x, Unit: m.unit}
	}
	// NaN and Inf, the only values Marshal rejects here, were left out above.
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]entry `json:"metrics"`
	}{res.correct, res.attempted, res.failed, ms})
	fmt.Fprintln(out, string(line))
}

// printCatalog prints every metric with what it measures and moves.
func printCatalog(out io.Writer) {
	fmt.Fprintln(out, "end-to-end (--trace 0):")
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-34s %-7s %-4s %-6s bound %.2f  %s\n", m.name, m.unit, m.kind, m.better, m.bound, m.moves)
	}
	fmt.Fprintln(out, "per-layer (--trace 1), each with the end-to-end metric it should move:")
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-34s %-7s %-4s %-6s -> %s\n", m.name, m.unit, m.kind, m.better, m.moves)
	}
}

// recordReference runs one pass of each workload at the default seed,
// unchecked, and prints the digests it produced as reference JSON.
func recordReference(root string, stdout, stderr io.Writer) int {
	ref := map[string]map[string]string{}
	for _, w := range workloads {
		p := runPass(w, passEnv{root: root, seed: defaultSeed, audit: true})
		if p.failed > 0 {
			fmt.Fprintf(stderr, "perfbench: %s failed its invariants; not recording\n", w.name)
			return 1
		}
		ref[w.name] = p.digests
	}
	b, _ := json.MarshalIndent(ref, "", "  ") // maps of strings always marshal
	fmt.Fprintln(stdout, string(b))
	return 0
}

// referenceJSON holds, per workload, the digests of its simulated outputs
// recorded with --record: one per experiment table for paper-quick, one
// per pass at the default seed for the seeded workloads.
//
//go:embed reference.json
var referenceJSON []byte

func loadReference() (map[string]map[string]string, error) {
	var ref map[string]map[string]string
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}
