package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"gs1280/internal/cpu"
	"gs1280/internal/machine"
	"gs1280/internal/sim"
	"gs1280/internal/stats"
	"gs1280/internal/topology"
	gswork "gs1280/internal/workload"
)

// gups-32p is a 32P (8x4) GS1280 on which every CPU runs GUPS over all of
// memory: all writes, so read-for-ownership, invalidations, dirty
// forwards and victims. Coherence, cache, memctrl and per-event engine
// cost do the work. The simulated side is a closed loop, each CPU at its
// MLP of 16; the host side is one caller driving Engine.RunUntil in fixed
// simulated-time windows, and a window is one unit.
const (
	gupsW, gupsH = 8, 4
	gupsUpdates  = 25_000 // per CPU and pass
	gupsWindow   = 5 * sim.Microsecond
)

// gupsSetup builds the machine and generates one GUPS stream per CPU from
// seed.
func gupsSetup(env passEnv) (func(*pass), error) {
	tr := env.tr
	sp := tr.begin("setup", -1)
	defer tr.end(sp)
	var before runtimeSample
	if tr != nil {
		before = readRuntime()
	}
	b := tr.begin("NewGS1280", sp)
	m := machine.NewGS1280(machine.GS1280Config{W: gupsW, H: gupsH})
	tr.end(b)
	var buildAlloc float64
	if tr != nil {
		buildAlloc = float64(readRuntime().totalAlloc-before.totalAlloc) / 1e6
	}
	streams := make([]cpu.Stream, m.N())
	for i := range streams {
		streams[i] = gswork.NewGUPS(0, m.TotalMemory(), gupsUpdates, mix(env.seed, uint64(i)))
	}
	return func(p *pass) {
		gupsRun(p, m, streams, env)
		if tr != nil {
			p.layer("machine.build_ms", tr.total("NewGS1280"))
			p.layer("machine.build_alloc_mb", buildAlloc)
		}
	}, nil
}

func gupsRun(p *pass, m *machine.GS1280, streams []cpu.Stream, env passEnv) {
	tr := env.tr
	root := tr.begin("gups", -1)
	defer tr.end(root)
	begin := time.Now()
	for i, s := range streams {
		m.CPUs[i].Run(s, nil)
	}
	var simTime time.Duration
	for running(m) {
		w := tr.begin("RunUntil", root)
		start := time.Now()
		m.Eng.RunUntil(m.Eng.Now() + gupsWindow)
		d := time.Since(start)
		tr.end(w)
		simTime += d
		p.units = append(p.units, float64(d)/1e6)
		p.attempted++
	}
	d := tr.begin("Run", root) // drain the writebacks and acks still queued
	start := time.Now()
	m.Eng.Run()
	simTime += time.Since(start)
	tr.end(d)
	p.wall = time.Since(begin).Seconds()

	var err error
	if env.audit { // CheckInvariants takes about half as long as the simulation
		c := tr.begin("CheckInvariants", root)
		err = m.Coh.CheckInvariants()
		tr.end(c)
	}
	var ops uint64
	for i, cp := range m.CPUs {
		st := cp.Stats()
		ops += st.Ops
		if err == nil && st.Ops != gupsUpdates {
			err = fmt.Errorf("cpu %d completed %d of %d updates", i, st.Ops, gupsUpdates)
		}
	}
	if err == nil && m.Net.InFlight() != 0 {
		err = fmt.Errorf("%d packets in flight at drain", m.Net.InFlight())
	}
	p.ops = float64(ops)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: gups-32p: %v\n", err)
		p.failed = p.attempted
	}
	p.digests = map[string]string{"sim": digest(gupsState(m))}
	checkReference(p, "gups-32p", env.ref)
	if tr != nil {
		gupsLayers(p, m, simTime, tr)
	}
}

// running reports whether any CPU still has updates outstanding.
func running(m *machine.GS1280) bool {
	for _, c := range m.CPUs {
		if c.Running() {
			return true
		}
	}
	return false
}

// gupsState renders every simulated statistic the layers expose, for the
// digest.
func gupsState(m *machine.GS1280) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d events=%d injected=%d delivered=%d\n",
		m.Eng.Now(), m.Eng.Executed(), m.Net.Injected(), m.Net.Delivered())
	for _, c := range m.CPUs {
		fmt.Fprintf(&b, "cpu %+v\n", c.Stats())
	}
	for n := 0; n < m.N(); n++ {
		id := topology.NodeID(n)
		fmt.Fprintf(&b, "node %+v", m.Coh.Stats(id))
		for ctl := 0; ctl < 2; ctl++ {
			z := m.Coh.Zbox(id, ctl)
			fmt.Fprintf(&b, " z%d=%d/%d/%d/%d", ctl, z.Reads(), z.Writes(), z.PageHits(), z.PageMisses())
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "miss %+v\n", m.Coh.MissLatencyHist().Quantiles())
	lat := m.Net.PacketLatency()
	fmt.Fprintf(&b, "pkt %+v\n", lat.Quantiles())
	return b.String()
}

func gupsLayers(p *pass, m *machine.GS1280, simTime time.Duration, tr *tracer) {
	var s struct{ acc, l1, l2, miss, dirty, naks, retries, victims, upgrades uint64 }
	var zr, zw, zh, zm uint64
	var util float64
	for n := 0; n < m.N(); n++ {
		id := topology.NodeID(n)
		st := m.Coh.Stats(id)
		s.acc += st.Loads + st.Stores
		s.l1 += st.L1Hits
		s.l2 += st.L2Hits
		s.miss += st.Misses
		s.dirty += st.ReadDirty
		s.naks += st.NAKs
		s.retries += st.Retries
		s.victims += st.VictimsSent
		s.upgrades += st.Upgrades
		for ctl := 0; ctl < 2; ctl++ {
			z := m.Coh.Zbox(id, ctl)
			zr, zw, zh, zm = zr+z.Reads(), zw+z.Writes(), zh+z.PageHits(), zm+z.PageMisses()
		}
		util += m.Coh.ZboxUtilization(id)
	}
	var ops uint64
	for _, c := range m.CPUs {
		ops += c.Stats().Ops
	}
	events := m.Eng.Executed()
	p.layer("cpu.ops", float64(ops))
	p.layer("coherence.misses", float64(s.miss))
	p.layer("coherence.read_dirty", float64(s.dirty))
	p.layer("coherence.naks", float64(s.naks))
	p.layer("coherence.retries", float64(s.retries))
	p.layer("coherence.retry_frac", ratio(s.retries, s.miss+s.retries))
	p.layer("coherence.victims", float64(s.victims))
	p.layer("coherence.upgrades", float64(s.upgrades))
	miss := m.Coh.MissLatencyHist()
	p.layer("coherence.miss_lat_p50_ns", simNs(miss.Quantile(0.5)))
	p.layer("coherence.miss_lat_p99_ns", simNs(miss.Quantile(0.99)))
	p.layer("coherence.check_ms", tr.total("CheckInvariants"))
	p.layer("cache.l1_hit_ratio", ratio(s.l1, s.acc))
	p.layer("cache.l2_hit_ratio", ratio(s.l2, s.acc-s.l1))
	p.layer("memctrl.reads", float64(zr))
	p.layer("memctrl.writes", float64(zw))
	p.layer("memctrl.page_hit_ratio", ratio(zh, zh+zm))
	p.layer("memctrl.util", util/float64(m.N()))
	p.layer("sim.events", float64(events))
	p.layer("sim.run_ms", float64(simTime)/1e6)
	p.layer("sim.ns_per_event", float64(simTime)/float64(max(events, 1)))
	networkLayers(p, m.Net.Injected(), m.Net.Delivered(), m.Net.PeakQueued(), m.Net.Reroutes(), m.Net.PacketLatency())
}

// networkLayers records the network layer's counters and packet latency
// quantiles.
func networkLayers(p *pass, injected, delivered uint64, peak int, reroutes uint64, lat stats.Histogram) {
	p.layer("network.injected", float64(injected))
	p.layer("network.delivered", float64(delivered))
	p.layer("network.peak_queued", float64(peak))
	p.layer("network.reroutes", float64(reroutes))
	p.layer("network.pkt_lat_p50_ns", simNs(lat.Quantile(0.5)))
	p.layer("network.pkt_lat_p99_ns", simNs(lat.Quantile(0.99)))
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// simNs converts simulated picoseconds to nanoseconds.
func simNs(ps int64) float64 { return float64(ps) / float64(sim.Nanosecond) }

// mix derives the i-th input seed from the run's seed (SplitMix64).
func mix(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + (i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
