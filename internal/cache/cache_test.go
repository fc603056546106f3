package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	// The EV7 L2: 1.75 MB, 7-way, 64-byte lines -> 4096 sets.
	c := New(1792*1024, 7, 64)
	if c.SizeBytes() != 1792*1024 {
		t.Fatalf("size = %d", c.SizeBytes())
	}
	if c.sets != 4096 {
		t.Fatalf("sets = %d, want 4096", c.sets)
	}
	// The GS320 off-chip L2: 16 MB direct-mapped.
	c = New(16*1024*1024, 1, 64)
	if c.sets != 262144 {
		t.Fatalf("sets = %d, want 262144", c.sets)
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 1, 64) },
		func() { New(1000, 1, 64) },    // not divisible
		func() { New(3*64*64, 1, 64) }, // 192 sets: not a power of two
		func() { New(64*2*48, 2, 48) }, // line not power of two
		func() { New(64*2, 1, 2) },     // no tag bits left for the state
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry did not panic")
				}
			}()
			f()
		}()
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(64*1024, 2, 64)
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	c.Fill(0x1000, SharedClean, 0)
	if !c.Access(0x1000) {
		t.Fatal("filled line missed")
	}
	if !c.Access(0x1020) {
		t.Fatal("same line, different offset missed")
	}
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", c.Hits(), c.Misses())
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way set; three conflicting lines: the least recently used goes.
	c := New(2*64, 2, 64) // a single set
	a, b, d := int64(0), int64(64), int64(128)
	c.Fill(a, SharedClean, 0)
	c.Fill(b, SharedClean, 0)
	c.Access(a) // b is now LRU
	v, had := c.Fill(d, SharedClean, 0)
	if !had || v.Addr != b {
		t.Fatalf("victim = %+v (had %v), want addr %d", v, had, b)
	}
	if !c.Access(a) || !c.Access(d) || c.Access(b) {
		t.Fatal("wrong lines resident after replacement")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := NewWithValues(2*64, 2, 64)
	c.Fill(0, ExclusiveDirty, 42)
	c.Fill(64, SharedClean, 0)
	c.Access(64) // line 0 becomes LRU
	v, had := c.Fill(128, SharedClean, 0)
	if !had || !v.Dirty || v.Addr != 0 || v.Value != 42 {
		t.Fatalf("dirty victim = %+v (had %v)", v, had)
	}
}

func TestFillUpgradeInPlace(t *testing.T) {
	c := NewWithValues(2*64, 2, 64)
	c.Fill(0, SharedClean, 7)
	v, had := c.Fill(0, ExclusiveDirty, 8)
	if had {
		t.Fatalf("upgrade produced victim %+v", v)
	}
	if st := c.Lookup(0); st != ExclusiveDirty {
		t.Fatalf("state = %v, want exclusive", st)
	}
	if val, ok := c.Value(0); !ok || val != 8 {
		t.Fatalf("value = %d (%v), want 8", val, ok)
	}
}

func TestInvalidate(t *testing.T) {
	c := NewWithValues(64*1024, 2, 64)
	c.Fill(0x40, ExclusiveDirty, 9)
	st, val := c.Invalidate(0x40)
	if st != ExclusiveDirty || val != 9 {
		t.Fatalf("invalidate = %v/%d, want exclusive/9", st, val)
	}
	if c.Lookup(0x40) != Invalid {
		t.Fatal("line still present after invalidate")
	}
	if st, _ := c.Invalidate(0x40); st != Invalid {
		t.Fatal("double invalidate reported a line")
	}
}

func TestDowngrade(t *testing.T) {
	c := NewWithValues(64*1024, 2, 64)
	c.Fill(0x80, ExclusiveDirty, 5)
	val, ok := c.Downgrade(0x80)
	if !ok || val != 5 {
		t.Fatalf("downgrade = %d/%v", val, ok)
	}
	if st := c.Lookup(0x80); st != SharedClean {
		t.Fatalf("state after downgrade = %v", st)
	}
	if _, ok := c.Downgrade(0x80); ok {
		t.Fatal("downgrading a shared line succeeded")
	}
}

func TestWorkingSetFitsUntilCapacity(t *testing.T) {
	// Touch a working set smaller than capacity twice: second pass must
	// fully hit. This is the mechanism behind the Fig 4 latency steps.
	c := New(64*1024, 2, 64)
	lines := int64(64 * 1024 / 64)
	for i := int64(0); i < lines; i++ {
		if !c.Access(i * 64) {
			c.Fill(i*64, SharedClean, 0)
		}
	}
	c.ResetStats()
	for i := int64(0); i < lines; i++ {
		c.Access(i * 64)
	}
	if c.Misses() != 0 {
		t.Fatalf("second pass missed %d times on resident set", c.Misses())
	}
	// A working set 2x capacity with LRU must miss every access.
	c = New(64*1024, 2, 64)
	for pass := 0; pass < 2; pass++ {
		for i := int64(0); i < 2*lines; i++ {
			if !c.Access(i * 64) {
				c.Fill(i*64, SharedClean, 0)
			}
		}
	}
	if c.Hits() != 0 {
		t.Fatalf("streaming working set produced %d hits, want 0 (LRU thrash)", c.Hits())
	}
}

func TestSetValue(t *testing.T) {
	c := NewWithValues(64*1024, 2, 64)
	c.Fill(0, ExclusiveDirty, 1)
	if !c.SetValue(0, 2) {
		t.Fatal("SetValue on resident line failed")
	}
	if v, _ := c.Value(0); v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
	if c.SetValue(0x10000000, 3) {
		t.Fatal("SetValue on absent line succeeded")
	}
}

func TestFlush(t *testing.T) {
	c := NewWithValues(64*1024, 2, 64)
	c.Fill(0, ExclusiveDirty, 1)
	c.Fill(64, SharedClean, 2)
	c.Fill(128, ExclusiveDirty, 3)
	dirty := c.Flush()
	if len(dirty) != 2 {
		t.Fatalf("flush returned %d dirty lines, want 2", len(dirty))
	}
	if c.Lookup(0) != Invalid || c.Lookup(64) != Invalid {
		t.Fatal("lines survive flush")
	}
}

func TestAlign(t *testing.T) {
	c := New(64*1024, 2, 64)
	if c.Align(0x1039) != 0x1000 {
		t.Fatalf("align = %#x", c.Align(0x1039))
	}
}

// Property: after any access sequence, the number of resident lines never
// exceeds capacity, and a just-filled line is always resident.
func TestFillAlwaysResidentProperty(t *testing.T) {
	c := New(8*64, 2, 64)
	f := func(addrs []uint16) bool {
		for _, a := range addrs {
			addr := int64(a) * 64
			if !c.Access(addr) {
				c.Fill(addr, SharedClean, 0)
			}
			if c.Lookup(addr) == Invalid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: direct-mapped caches evict exactly the conflicting line.
func TestDirectMappedConflict(t *testing.T) {
	c := New(4*64, 1, 64)
	f := func(a8, b8 uint8) bool {
		a := int64(a8) * 64
		b := int64(b8) * 64
		c.Flush()
		c.Fill(a, SharedClean, 0)
		c.Fill(b, SharedClean, 0)
		conflict := (a>>6)&3 == (b>>6)&3 && a != b
		if conflict {
			return c.Lookup(a) == Invalid && c.Lookup(b) != Invalid
		}
		return c.Lookup(a) != Invalid && c.Lookup(b) != Invalid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refCache is the reference tag array the compact Cache must match: one
// 24-byte struct per way holding tag, state, LRU stamp and value, with
// the same clock-stamp LRU and "first invalid way, else lowest stamp"
// victim order. It exists only to drive TestMatchesReference.
type refCache struct {
	ways      int
	lineBytes int64
	setMask   int64
	lineShift uint
	data      []refWay
	clock     uint32

	hits, misses uint64
}

type refWay struct {
	tag   int64
	state LineState
	lru   uint32
	value uint64
}

func newRef(sizeBytes int64, ways int, lineBytes int64) *refCache {
	c := New(sizeBytes, ways, lineBytes) // validates the geometry
	return &refCache{
		ways:      ways,
		lineBytes: lineBytes,
		setMask:   c.setMask,
		lineShift: c.lineShift,
		data:      make([]refWay, c.sets*ways),
	}
}

func (c *refCache) set(addr int64) []refWay {
	s := int((addr >> c.lineShift) & c.setMask)
	return c.data[s*c.ways : (s+1)*c.ways]
}

// way returns addr's valid way, or nil.
func (c *refCache) way(addr int64) *refWay {
	tag := addr &^ (c.lineBytes - 1)
	set := c.set(addr)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) Lookup(addr int64) LineState {
	if w := c.way(addr); w != nil {
		return w.state
	}
	return Invalid
}

func (c *refCache) Access(addr int64) bool {
	if w := c.way(addr); w != nil {
		c.clock++
		w.lru = c.clock
		c.hits++
		return true
	}
	c.misses++
	return false
}

func (c *refCache) Fill(addr int64, state LineState, value uint64) (Victim, bool) {
	tag := addr &^ (c.lineBytes - 1)
	set := c.set(addr)
	c.clock++
	if w := c.way(addr); w != nil {
		w.state, w.lru, w.value = state, c.clock, value
		return Victim{}, false
	}
	victimIdx := -1
	for i := range set {
		if set[i].state == Invalid {
			victimIdx = i
			break
		}
	}
	evicted, hasVictim := Victim{}, false
	if victimIdx < 0 {
		victimIdx = 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[victimIdx].lru {
				victimIdx = i
			}
		}
		w := &set[victimIdx]
		evicted = Victim{Addr: w.tag, Dirty: w.state == ExclusiveDirty, Value: w.value}
		hasVictim = true
	}
	set[victimIdx] = refWay{tag: tag, state: state, lru: c.clock, value: value}
	return evicted, hasVictim
}

func (c *refCache) Invalidate(addr int64) (LineState, uint64) {
	if w := c.way(addr); w != nil {
		prev, val := w.state, w.value
		*w = refWay{}
		return prev, val
	}
	return Invalid, 0
}

func (c *refCache) Downgrade(addr int64) (uint64, bool) {
	if w := c.way(addr); w != nil && w.state == ExclusiveDirty {
		w.state = SharedClean
		return w.value, true
	}
	return 0, false
}

func (c *refCache) Value(addr int64) (uint64, bool) {
	if w := c.way(addr); w != nil {
		return w.value, true
	}
	return 0, false
}

func (c *refCache) SetValue(addr int64, v uint64) bool {
	if w := c.way(addr); w != nil {
		w.value = v
		return true
	}
	return false
}

func (c *refCache) Flush() []Victim {
	var dirty []Victim
	for i := range c.data {
		w := &c.data[i]
		if w.state == ExclusiveDirty {
			dirty = append(dirty, Victim{Addr: w.tag, Dirty: true, Value: w.value})
		}
		*w = refWay{}
	}
	return dirty
}

// TestMatchesReference drives the compact Cache and refCache with the
// same seeded random operation sequences and requires identical results:
// states, hits, victims (address, dirty, value) and hit/miss counts. A
// cache built by New keeps no values, so there the reference's values
// are compared as 0.
func TestMatchesReference(t *testing.T) {
	geoms := []struct {
		name string
		sets int64
		ways int
	}{
		{"direct-mapped", 16, 1},
		{"2-way", 16, 2},
		{"7-way", 8, 7},
	}
	for _, g := range geoms {
		for _, withValues := range []bool{false, true} {
			name := fmt.Sprintf("%s/values=%v", g.name, withValues)
			t.Run(name, func(t *testing.T) {
				size := g.sets * int64(g.ways) * 64
				c := New(size, g.ways, 64)
				if withValues {
					c = NewWithValues(size, g.ways, 64)
				}
				ref := newRef(size, g.ways, 64)
				val := func(v uint64) uint64 {
					if withValues {
						return v
					}
					return 0
				}
				rng := rand.New(rand.NewSource(1))
				// Four lines per way of capacity: hits, conflicts and
				// evictions are all frequent.
				lines := 4 * g.sets * int64(g.ways)
				for op := 0; op < 50000; op++ {
					addr := rng.Int63n(lines)*64 + rng.Int63n(64)
					fail := func(what string, got, want any) {
						t.Fatalf("op %d %s(%#x): got %v, want %v", op, what, addr, got, want)
					}
					switch k := rng.Intn(100); {
					case k < 30:
						if got, want := c.Access(addr), ref.Access(addr); got != want {
							fail("Access", got, want)
						}
					case k < 40:
						if got, want := c.Lookup(addr), ref.Lookup(addr); got != want {
							fail("Lookup", got, want)
						}
					case k < 70:
						st := SharedClean + LineState(rng.Intn(2))
						v := rng.Uint64()
						gv, gok := c.Fill(addr, st, v)
						wv, wok := ref.Fill(addr, st, v)
						wv.Value = val(wv.Value)
						if gv != wv || gok != wok {
							fail("Fill", fmt.Sprint(gv, gok), fmt.Sprint(wv, wok))
						}
					case k < 78:
						gs, gv := c.Invalidate(addr)
						ws, wv := ref.Invalidate(addr)
						if gs != ws || gv != val(wv) {
							fail("Invalidate", fmt.Sprint(gs, gv), fmt.Sprint(ws, val(wv)))
						}
					case k < 86:
						gv, gok := c.Downgrade(addr)
						wv, wok := ref.Downgrade(addr)
						if gv != val(wv) || gok != wok {
							fail("Downgrade", fmt.Sprint(gv, gok), fmt.Sprint(val(wv), wok))
						}
					case k < 92:
						gv, gok := c.Value(addr)
						wv, wok := ref.Value(addr)
						if gv != val(wv) || gok != wok {
							fail("Value", fmt.Sprint(gv, gok), fmt.Sprint(val(wv), wok))
						}
					case k < 99:
						v := rng.Uint64()
						if got, want := c.SetValue(addr, v), ref.SetValue(addr, v); got != want {
							fail("SetValue", got, want)
						}
					default:
						got, want := c.Flush(), ref.Flush()
						for i := range want {
							want[i].Value = val(want[i].Value)
						}
						if !reflect.DeepEqual(got, want) {
							fail("Flush", got, want)
						}
					}
					if c.Hits() != ref.hits || c.Misses() != ref.misses {
						t.Fatalf("op %d: hits/misses %d/%d, want %d/%d",
							op, c.Hits(), c.Misses(), ref.hits, ref.misses)
					}
				}
			})
		}
	}
}

// allocatedBytes reports the bytes f allocates, with the collector off.
func allocatedBytes(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestFootprint guards the per-way cost of the two L2 geometries the
// machines build most: a GS320's 16 MB direct-mapped L2 keeps one 8-byte
// tag word a way, and the EV7's 1.75 MB 7-way coherence L2 at most 20
// bytes a way (tag word, LRU stamp and value).
func TestFootprint(t *testing.T) {
	var c *Cache
	if got := allocatedBytes(func() { c = New(16<<20, 1, 64) }); float64(got) > 2.1*(1<<20) {
		t.Errorf("New(16 MB, 1, 64) allocates %d bytes, want <= 2.1 MiB", got)
	}
	// The allowance past 20 bytes a way is the Cache header itself.
	got := allocatedBytes(func() { c = NewWithValues(1792*1024, 7, 64) })
	if ways := uint64(c.sets * c.ways); got > 20*ways+256 {
		t.Errorf("coherence L2 allocates %d bytes for %d ways, want <= 20 per way", got, ways)
	}
	runtime.KeepAlive(c)
}

// hotPath runs one round of every //gs:noalloc cache method over lines
// of c: hits, misses, a victim-producing fill, a downgrade and an
// invalidation.
func hotPath(c *Cache, i int64) {
	span := 2 * c.SizeBytes()
	a := i * 64 % span
	b := (a + c.SizeBytes()) % span // same set, conflicting tag
	if !c.Access(a) {
		c.Fill(a, ExclusiveDirty, uint64(i))
	}
	c.Lookup(b)
	c.Fill(b, SharedClean, 0)
	c.Downgrade(a)
	c.Invalidate(b)
}

// TestCacheHotPathZeroAlloc guards the cache's //gs:noalloc methods:
// probing, filling, evicting, downgrading and invalidating must never
// allocate, on either L2 geometry.
func TestCacheHotPathZeroAlloc(t *testing.T) {
	for _, c := range []*Cache{New(16<<20, 1, 64), NewWithValues(1792*1024, 7, 64)} {
		i := int64(0)
		if allocs := testing.AllocsPerRun(1000, func() { hotPath(c, i); i++ }); allocs != 0 {
			t.Errorf("%d-way cache hot path: %.2f allocs/op, want 0", c.ways, allocs)
		}
	}
}

// benchGeoms are the two L2 geometries: the GS320's 16 MB direct-mapped
// L2, and the EV7's 1.75 MB 7-way L2 with the coherence layer's values.
var benchGeoms = []struct {
	name string
	new  func() *Cache
}{
	{"dm16MB", func() *Cache { return New(16<<20, 1, 64) }},
	{"7way1.75MB", func() *Cache { return NewWithValues(1792*1024, 7, 64) }},
}

// BenchmarkCacheAccess measures a probe that hits: the working set is
// half the cache, filled before the timer starts.
func BenchmarkCacheAccess(b *testing.B) {
	for _, g := range benchGeoms {
		b.Run(g.name, func(b *testing.B) {
			c := g.new()
			lines := c.SizeBytes() / 64 / 2
			for i := int64(0); i < lines; i++ {
				c.Fill(i*64, SharedClean, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !c.Access(int64(i) % lines * 64) {
					b.Fatal("resident line missed")
				}
			}
		})
	}
}

// BenchmarkCacheFill measures a fill that evicts: the stream covers four
// times the capacity, so after the first lap every fill has a victim.
func BenchmarkCacheFill(b *testing.B) {
	for _, g := range benchGeoms {
		b.Run(g.name, func(b *testing.B) {
			c := g.new()
			lines := 4 * c.SizeBytes() / 64
			for i := int64(0); i < c.SizeBytes()/64; i++ {
				c.Fill(i*64, ExclusiveDirty, uint64(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Fill(int64(i)%lines*64, ExclusiveDirty, uint64(i))
			}
		})
	}
}
