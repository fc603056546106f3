package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"gs1280/internal/network"
	"gs1280/internal/sim"
	"gs1280/internal/stats"
	"gs1280/internal/topology"
	"gs1280/internal/traffic"
)

// satur-64p offers uniform open-loop traffic to an 8x8 torus with
// adaptive routing, at fixed rates below, at and past the saturation knee
// (about 0.045 packets/node/ns), plus the at-knee rate with the row-0 X
// wrap cable failed (masked routing). A unit is one (rate, seed) point on
// its own engine and network. Network, topology next-hop and engine do
// the work; coherence, cache and memctrl do none, so a change to those is
// predicted not to move this workload.
var saturPoints = []struct {
	rate   float64 // offered packets per node per ns
	masked bool
}{
	{0.020, false}, {0.045, false}, {0.060, false}, {0.045, true},
}

const (
	saturSeeds   = 5 // points per rate and pass, each with its own seed
	saturWarmup  = 10 * sim.Microsecond
	saturMeasure = 25 * sim.Microsecond
)

// saturUnit is one point, with its network built at set-up.
type saturUnit struct {
	net *network.Network
	cfg traffic.Config
}

// saturSetup builds the torus, validates the failure set by building its
// routing mask, and builds a network on a fresh engine for every point of
// the pass. Point seeds derive from seed.
func saturSetup(env passEnv) (func(*pass), error) {
	tr := env.tr
	sp := tr.begin("setup", -1)
	defer tr.end(sp)
	t := tr.begin("NewTorus", sp)
	topo := topology.NewTorus(8, 8)
	tr.end(t)
	wrap := topology.LinkKey{
		From: topo.Node(topology.Coord{X: topo.W - 1, Y: 0}),
		To:   topo.Node(topology.Coord{X: 0, Y: 0}), Dir: topology.East}
	mk := tr.begin("NewMask", sp)
	topo.NewMask([]topology.LinkKey{wrap, wrap.Reverse()}) // panics on a partitioning set
	tr.end(mk)

	var units []saturUnit
	for s := 0; s < saturSeeds; s++ {
		for i, pt := range saturPoints {
			b := tr.begin("network.New", sp)
			net := network.New(sim.NewEngine(), topo, network.DefaultParams())
			if pt.masked {
				net.FailLink(wrap)
			}
			tr.end(b)
			units = append(units, saturUnit{net: net, cfg: traffic.Config{
				Pattern: traffic.Uniform(),
				Rate:    pt.rate,
				Class:   network.Request,
				Size:    network.DataPacketSize,
				Seed:    mix(env.seed, uint64(s*len(saturPoints)+i)),
				Warmup:  saturWarmup,
				Measure: saturMeasure,
			}})
		}
	}
	return func(p *pass) {
		saturRun(p, units, env.ref, tr)
		if tr != nil {
			p.layer("topology.build_ms", tr.total("NewTorus"))
			p.layer("topology.mask_ms", tr.total("NewMask"))
			p.layer("network.build_ms", tr.total("network.New"))
		}
	}, nil
}

func saturRun(p *pass, units []saturUnit, ref map[string]string, tr *tracer) {
	root := tr.begin("satur", -1)
	defer tr.end(root)
	var state strings.Builder
	var runTime time.Duration
	var events, injected, delivered, reroutes, offered, accepted, stalled uint64
	var peak int
	var lat stats.Histogram
	for _, u := range units {
		sp := tr.begin("traffic.Run", root)
		start := time.Now()
		res, err := runPoint(u)
		d := time.Since(start)
		tr.end(sp)
		runTime += d
		p.units = append(p.units, float64(d)/1e6)
		p.attempted++
		if err == nil && res.Offered != res.Stalled+res.Injected {
			err = fmt.Errorf("offered %d != stalled %d + injected %d", res.Offered, res.Stalled, res.Injected)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: satur-64p rate %g seed %d: %v\n", u.cfg.Rate, u.cfg.Seed, err)
			p.failed++
			continue
		}
		p.ops += float64(res.Delivered)
		fmt.Fprintf(&state, "%+v events=%d\n", res, u.net.Engine().Executed())
		events += u.net.Engine().Executed()
		injected += u.net.Injected()
		delivered += u.net.Delivered()
		reroutes += u.net.Reroutes()
		offered += res.Offered
		accepted += res.Injected
		stalled += res.Stalled
		peak = max(peak, u.net.PeakQueued())
		pl := u.net.PacketLatency()
		lat.Merge(&pl)
	}
	p.wall = runTime.Seconds()
	p.digests = map[string]string{"sim": digest(state.String())}
	checkReference(p, "satur-64p", ref)
	if tr != nil {
		// traffic.Run drives Engine.RunUntil itself, so the engine's host
		// time is traffic.Run's.
		p.layer("traffic.run_ms", tr.total("traffic.Run"))
		p.layer("traffic.accepted_frac", ratio(accepted, offered))
		p.layer("traffic.stalled", float64(stalled))
		p.layer("sim.events", float64(events))
		p.layer("sim.run_ms", float64(runTime)/1e6)
		p.layer("sim.ns_per_event", float64(runTime)/float64(max(events, 1)))
		networkLayers(p, injected, delivered, peak, reroutes, lat)
	}
}

// runPoint runs one point, turning a panic into an error so it fails
// only its own unit.
func runPoint(u saturUnit) (res traffic.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return traffic.Run(u.net, u.cfg), nil
}
