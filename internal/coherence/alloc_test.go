package coherence

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"gs1280/internal/memctrl"
	"gs1280/internal/network"
	"gs1280/internal/sim"
	"gs1280/internal/topology"
)

// chaseSystem builds a 2x1 fabric with full-size caches and regions large
// enough that a multi-MB dependent chase misses L2 on every access.
func chaseSystem() (*sim.Engine, *System) {
	eng := sim.NewEngine()
	topo := topology.NewTorus(2, 1)
	net := network.New(eng, topo, network.DefaultParams())
	params := DefaultParams()
	amap := NewAddressMap(topo.N(), 16<<20, params.LineBytes)
	return eng, NewSystem(eng, net, amap, params, memctrl.DefaultParams())
}

// chase runs count dependent accesses over a dataset of lines cache
// lines starting at base, one access in flight at a time, issued from
// node 0. The done callback is bound once: the measured path is purely
// the protocol, memory controller, network and engine — exactly the
// steady-state miss cycle.
func chase(eng *sim.Engine, s *System, base int64, lines, count int, write bool) {
	i := 0
	var step func(sim.Time)
	step = func(sim.Time) {
		if i >= count {
			return
		}
		addr := base + int64(i%lines)*64
		i++
		s.Access(0, addr, write, step)
	}
	step(0)
	eng.Run()
}

// missPathAllocsPerOp measures heap allocations and allocated bytes per
// access on a warmed system: the first lap creates every directory entry,
// grows the message pool, rings and event wheel to steady state; the
// measured laps then revisit the same lines.
func missPathAllocsPerOp(remote bool) (allocs, bytes float64) {
	eng, s := chaseSystem()
	base := s.amap.RegionBase(0)
	if remote {
		base = s.amap.RegionBase(1)
	}
	// 8 MB dataset: far beyond the 1.75 MB L2, so every lap misses.
	const lines = (8 << 20) / 64
	chase(eng, s, base, lines, lines, false)

	const ops = 20000
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	chase(eng, s, base, lines, ops, false)
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(ops),
		float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops)
}

// TestCoherenceFastPathAllocs is the CI regression guard for the
// steady-state miss path: a read miss — local or remote — must run the
// full MAF/directory/Zbox/fill cycle without a single heap allocation.
// Bytes/op is asserted too, not just allocs/op: the 11 B/op this suite
// carried before PR 4 came from rare-but-large amortized events (a spill
// table rehashing on a lookup, the open-page ring reallocating every few
// hundred page opens) that a malloc-count guard rounds away. The byte
// tolerance covers the measurement scaffolding itself (one closure per
// chase call).
func TestCoherenceFastPathAllocs(t *testing.T) {
	for _, remote := range []bool{false, true} {
		name := map[bool]string{false: "local", true: "remote"}[remote]
		allocs, bytes := missPathAllocsPerOp(remote)
		if allocs > 0.01 {
			t.Errorf("%s read-miss path allocates %.4f allocs/op, want 0", name, allocs)
		}
		if bytes > 1 {
			t.Errorf("%s read-miss path allocates %.2f bytes/op, want 0", name, bytes)
		}
	}
}

// TestCoherenceWriteMissPathAllocs extends the guard to the store path:
// read-modify-write misses exercise MAF reuse with exclusive grants and
// must be equally allocation-free — in counts and bytes — in steady state.
func TestCoherenceWriteMissPathAllocs(t *testing.T) {
	eng, s := chaseSystem()
	base := s.amap.RegionBase(0)
	const lines = (8 << 20) / 64
	chase(eng, s, base, lines, lines, true) // warm: every line exists dirty, victims cycle
	const ops = 20000
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	chase(eng, s, base, lines, ops, true)
	runtime.ReadMemStats(&m1)
	if perOp := float64(m1.Mallocs-m0.Mallocs) / float64(ops); perOp > 0.01 {
		t.Errorf("write-miss path allocates %.4f allocs/op, want 0", perOp)
	}
	if perOp := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops); perOp > 1 {
		t.Errorf("write-miss path allocates %.2f bytes/op, want 0", perOp)
	}
}

// TestDirEntryQueueMemoryBounded guards the transaction queue's
// compaction: a line that stays contended for its whole lifetime (the
// queue never fully drains, so the reset-when-empty path never fires)
// must still keep its backing array at O(peak depth), not O(total
// requests) — the leak class internal/network's rings fixed in PR 2.
func TestDirEntryQueueMemoryBounded(t *testing.T) {
	var e dirEntry
	const total, depth = 100000, 8
	for i := 0; i < depth; i++ {
		e.pushQueue(homeMsg{from: topology.NodeID(i % 4)})
	}
	for i := 0; i < total; i++ {
		e.pushQueue(homeMsg{from: topology.NodeID(i % 4)})
		e.popQueue() // depth stays at 8+1; the queue is never empty
	}
	if got := cap(e.q.msgs); got > 16*depth {
		t.Fatalf("queue cap %d after %d messages at depth %d; dead prefix not compacted",
			got, total, depth)
	}
}

// TestDirEntrySize guards the directory's per-line footprint: every
// referenced line of every home holds a dirEntry, so the transaction
// queue stays in its side record and the entry stays at 40 bytes.
func TestDirEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(dirEntry{}); got > 40 {
		t.Fatalf("dirEntry is %d bytes, want <= 40", got)
	}
}

// BenchmarkReadMissLocal measures the per-access cost of the local
// steady-state read-miss path; -benchmem should report 0 allocs/op.
func BenchmarkReadMissLocal(b *testing.B) {
	eng, s := chaseSystem()
	base := s.amap.RegionBase(0)
	const lines = (8 << 20) / 64
	chase(eng, s, base, lines, lines, false)
	b.ReportAllocs()
	b.ResetTimer()
	chase(eng, s, base, lines, b.N, false)
}

// BenchmarkReadMissRemote measures the 1-hop remote read-miss path
// (request and response cross the network); 0 allocs/op expected.
func BenchmarkReadMissRemote(b *testing.B) {
	eng, s := chaseSystem()
	base := s.amap.RegionBase(1)
	const lines = (8 << 20) / 64
	chase(eng, s, base, lines, lines, false)
	b.ReportAllocs()
	b.ResetTimer()
	chase(eng, s, base, lines, b.N, false)
}
