package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gs1280"
	"gs1280/internal/experiments"
)

// paper-quick is the 37-experiment quick suite through the public
// RunExperiments at one worker: what a user of gsbench waits for, and the
// only workload where machine construction, allocation and GC weigh
// heavily. A unit is one runner unit (137 of them). Its inputs are fixed
// by the experiments themselves, so the seed does not change them.

// quickFixtures are the golden quick CSVs the runner's tests replay; the
// suite must reproduce them byte for byte.
const quickFixtures = "internal/runner/testdata"

// quickWarmup is the experiment set-up runs to warm the simulator: the
// 4x4 torus latency matrix, a few milliseconds of simulation. Planning and
// loading fixtures alone take a fraction of a millisecond, too little to
// time steadily.
const quickWarmup = "fig13"

// quickSetup plans the suite the way the runner does, resolving every
// experiment and splitting it into units, loads the committed fixtures,
// and runs quickWarmup, whose table must match its recorded digest.
func quickSetup(env passEnv) (func(*pass), error) {
	tr := env.tr
	sp := tr.begin("setup", -1)
	defer tr.end(sp)
	ids := gs1280.ExperimentIDs()
	if strings.Join(ids, ",") != strings.Join(quickIDs, ",") {
		return nil, fmt.Errorf("experiment ids changed: got %v", ids)
	}
	planned := 0
	for _, id := range ids {
		spec, ok := experiments.SpecByID(id)
		if !ok {
			return nil, fmt.Errorf("no spec for experiment %s", id)
		}
		planned += len(spec.Units(true))
	}
	fixtures := map[string]string{}
	dir := filepath.Join(env.root, quickFixtures)
	paths, err := filepath.Glob(filepath.Join(dir, "*.quick.csv"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no fixtures in %s", dir)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		fixtures[strings.TrimSuffix(filepath.Base(path), ".quick.csv")] = string(b)
	}
	warm := tr.begin(quickWarmup, sp)
	t, err := gs1280.Experiment(quickWarmup, true)
	tr.end(warm)
	if err != nil {
		return nil, err
	}
	if env.ref != nil && digest(t.CSV()) != env.ref[quickWarmup] {
		return nil, fmt.Errorf("warm-up %s differs from its recorded digest", quickWarmup)
	}
	return func(p *pass) { quickRun(p, ids, planned, fixtures, env.ref, tr) }, nil
}

// quickUnit is one unit completion as the runner reported it.
type quickUnit struct {
	name    string
	elapsed time.Duration
	at      time.Time
}

func quickRun(p *pass, ids []string, planned int, fixtures, ref map[string]string, tr *tracer) {
	var units []quickUnit
	opts := gs1280.SuiteOptions{Workers: 1, Quick: true, OnUnit: func(u gs1280.SuiteUnitDone) {
		units = append(units, quickUnit{name: u.Unit, elapsed: u.Elapsed, at: time.Now()})
	}}
	suite := tr.begin("RunExperiments", -1)
	start := time.Now()
	results, err := gs1280.RunExperiments(context.Background(), ids, opts)
	p.wall = time.Since(start).Seconds()
	tr.end(suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: RunExperiments: %v\n", err)
	}
	// RunExperiments returns only after every OnUnit call has, so units
	// is complete and safe to read here.
	var maxUnit time.Duration
	for _, u := range units {
		p.units = append(p.units, float64(u.elapsed)/1e6)
		maxUnit = max(maxUnit, u.elapsed)
		tr.add(u.name, suite, u.at.Add(-u.elapsed), u.at)
	}
	p.digests = map[string]string{}
	for _, r := range results {
		ok := r.Err == nil && r.Table != nil
		if ok {
			csv := r.Table.CSV()
			p.digests[r.ID] = digest(csv)
			if ref != nil && ref[r.ID] != p.digests[r.ID] {
				fmt.Fprintf(os.Stderr, "perfbench: %s: table differs from its recorded digest\n", r.ID)
				ok = false
			}
			if want, has := fixtures[r.ID]; has && csv != want {
				fmt.Fprintf(os.Stderr, "perfbench: %s: CSV differs from %s/%s.quick.csv\n", r.ID, quickFixtures, r.ID)
				ok = false
			}
		} else if r.Err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.ID, r.Err)
		}
		n := max(r.Units, 1) // an experiment that never split still counts
		p.attempted += n
		if !ok {
			p.failed += n
		}
		if tr != nil {
			p.layer("experiments."+r.ID+".work_ms", float64(r.Work)/1e6)
		}
	}
	if len(units) != planned {
		fmt.Fprintf(os.Stderr, "perfbench: the runner reported %d units, the plan has %d\n", len(units), planned)
		p.failed = p.attempted
	}
	p.ops = float64(len(units))
	if tr != nil {
		self := selfTimes(tr.spans)
		p.layer("runner.overhead_ms", float64(self[suite])/1e6)
		p.layer("runner.units", float64(len(units)))
		p.layer("experiments.unit_ms_max", float64(maxUnit)/1e6)
	}
}

// digest is a short hex SHA-256 of s.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:12])
}
