// Package cache implements the tag arrays of the simulated memory
// hierarchies: the EV7's on-chip 1.75 MB 7-way L2, the previous
// generation's off-chip 16 MB direct-mapped L2, and the 64 KB 2-way L1
// shared by both cores. Only tags and state are modeled — the simulator
// never stores data bytes, except the coherence layer's per-line values
// used to verify protocol correctness.
package cache

import "fmt"

// LineState tracks the coherence role of a cached line.
type LineState uint8

const (
	// Invalid marks an empty way.
	Invalid LineState = iota
	// SharedClean holds a read-only copy.
	SharedClean
	// ExclusiveDirty holds the only copy, possibly modified; eviction
	// must write back.
	ExclusiveDirty
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "invalid"
	case SharedClean:
		return "shared"
	case ExclusiveDirty:
		return "exclusive"
	}
	//lint:alloc-ok formatting only on invalid states and opt-in trace paths
	return fmt.Sprintf("LineState(%d)", int(s))
}

// Victim describes a line displaced by a fill.
type Victim struct {
	Addr  int64 // line-aligned address
	Dirty bool  // requires writeback to its home
	Value uint64
}

// Cache is a set-associative, LRU-replacement tag array. It is not
// goroutine-safe; the simulation is single-threaded.
//
// Per-way state lives in parallel arrays, set-major. Every way has one
// tag word: the line-aligned address with the LineState in its low two
// bits, so 0 is an Invalid way. Associative caches add a uint32 clock
// stamp per way for true LRU; a direct-mapped cache always evicts its
// only way and keeps none. Only caches built by NewWithValues keep a
// value per way. That is 8 bytes a way direct-mapped and 12
// associative, plus 8 with values.
type Cache struct {
	sets, ways int
	lineBytes  int64
	setMask    int64
	lineShift  uint
	tags       []uint64 // sets*ways tag words; 0 = Invalid
	lru        []uint32 // sets*ways clock stamps; nil when direct-mapped
	values     []uint64 // sets*ways values; nil unless built by NewWithValues
	clock      uint32

	hits, misses uint64
}

// stateMask selects a tag word's LineState bits.
const stateMask = 3

// New builds a cache of the given total size that keeps no line values:
// Fill and SetValue discard them, and Value, Downgrade, Invalidate and
// victims report 0. sizeBytes must be an exact multiple of
// ways*lineBytes and yield a power-of-two set count.
func New(sizeBytes int64, ways int, lineBytes int64) *Cache {
	return newCache(sizeBytes, ways, lineBytes, false)
}

// NewWithValues builds a cache like New that also stores a value per
// line, for a protocol that reads values back to verify coherence.
func NewWithValues(sizeBytes int64, ways int, lineBytes int64) *Cache {
	return newCache(sizeBytes, ways, lineBytes, true)
}

func newCache(sizeBytes int64, ways int, lineBytes int64, values bool) *Cache {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	if sizeBytes%(int64(ways)*lineBytes) != 0 {
		panic(fmt.Sprintf("cache: size %d not divisible by ways*line %d", sizeBytes, int64(ways)*lineBytes))
	}
	sets := sizeBytes / (int64(ways) * lineBytes)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", sets))
	}
	shift := uint(0)
	for l := lineBytes; l > 1; l >>= 1 {
		if l&1 == 1 {
			panic("cache: line size not a power of two")
		}
		shift++
	}
	if lineBytes <= stateMask {
		panic("cache: line size leaves no tag bits for the state")
	}
	n := int(sets) * ways
	c := &Cache{
		sets:      int(sets),
		ways:      ways,
		lineBytes: lineBytes,
		setMask:   sets - 1,
		lineShift: shift,
		tags:      make([]uint64, n),
	}
	if ways > 1 {
		c.lru = make([]uint32, n)
	}
	if values {
		c.values = make([]uint64, n)
	}
	return c
}

// SizeBytes reports the cache capacity.
func (c *Cache) SizeBytes() int64 { return int64(c.sets) * int64(c.ways) * c.lineBytes }

// LineBytes reports the line size.
func (c *Cache) LineBytes() int64 { return c.lineBytes }

// Align returns the line-aligned address containing addr.
func (c *Cache) Align(addr int64) int64 { return addr &^ (c.lineBytes - 1) }

// setBase returns the index of addr's set's first way.
func (c *Cache) setBase(addr int64) int {
	return int((addr>>c.lineShift)&c.setMask) * c.ways
}

// find returns the index of the valid way holding addr, or -1.
func (c *Cache) find(addr int64) int {
	tag := uint64(c.Align(addr))
	base := c.setBase(addr)
	for i, w := range c.tags[base : base+c.ways] {
		if w&^stateMask == tag && w&stateMask != 0 {
			return base + i
		}
	}
	return -1
}

func (c *Cache) value(i int) uint64 {
	if c.values == nil {
		return 0
	}
	return c.values[i]
}

// Lookup probes for addr without modifying replacement state. It reports
// the line's state (Invalid on miss).
//
//gs:noalloc guard=TestCacheHotPathZeroAlloc
func (c *Cache) Lookup(addr int64) LineState {
	if i := c.find(addr); i >= 0 {
		return LineState(c.tags[i] & stateMask)
	}
	return Invalid
}

// Access probes for addr, updating LRU and hit/miss counters. It reports
// whether the access hit (any valid state).
//
//gs:noalloc guard=TestCacheHotPathZeroAlloc
func (c *Cache) Access(addr int64) bool {
	i := c.find(addr)
	if i < 0 {
		c.misses++
		return false
	}
	c.clock++
	if c.lru != nil {
		c.lru[i] = c.clock
	}
	c.hits++
	return true
}

// Fill installs addr with the given state, returning the displaced victim
// if a valid line had to be evicted. Filling a line that is already
// present updates its state in place (e.g. a Shared line upgraded to
// Exclusive by a write) and never produces a victim.
//
//gs:noalloc guard=TestCacheHotPathZeroAlloc
func (c *Cache) Fill(addr int64, state LineState, value uint64) (Victim, bool) {
	if state == Invalid {
		panic("cache: Fill with Invalid state")
	}
	tag := uint64(c.Align(addr))
	base := c.setBase(addr)
	set := c.tags[base : base+c.ways]
	c.clock++
	// Upgrade in place; else take the first invalid way.
	slot := -1
	for i, w := range set {
		if w&^stateMask == tag && w&stateMask != 0 {
			slot = i
			break
		}
		if w == 0 && slot < 0 {
			slot = i
		}
	}
	evicted := Victim{}
	hasVictim := false
	if slot < 0 {
		// Every way is valid: evict true-LRU.
		slot = 0
		if c.lru != nil {
			lru := c.lru[base : base+c.ways]
			for i := 1; i < len(lru); i++ {
				if lru[i] < lru[slot] {
					slot = i
				}
			}
		}
		w := set[slot]
		evicted = Victim{Addr: int64(w &^ stateMask), Dirty: LineState(w&stateMask) == ExclusiveDirty, Value: c.value(base + slot)}
		hasVictim = true
	}
	set[slot] = tag | uint64(state)
	if c.lru != nil {
		c.lru[base+slot] = c.clock
	}
	if c.values != nil {
		c.values[base+slot] = value
	}
	return evicted, hasVictim
}

// Invalidate removes addr if present, reporting the line's prior state and
// value (for dirty-data forwarding on invalidation).
//
//gs:noalloc guard=TestCacheHotPathZeroAlloc
func (c *Cache) Invalidate(addr int64) (LineState, uint64) {
	i := c.find(addr)
	if i < 0 {
		return Invalid, 0
	}
	prev, val := LineState(c.tags[i]&stateMask), c.value(i)
	c.tags[i] = 0
	if c.lru != nil {
		c.lru[i] = 0
	}
	if c.values != nil {
		c.values[i] = 0
	}
	return prev, val
}

// Downgrade moves an exclusive line to shared (after the owner services a
// read forward), reporting whether the line was present and its value.
//
//gs:noalloc guard=TestCacheHotPathZeroAlloc
func (c *Cache) Downgrade(addr int64) (uint64, bool) {
	i := c.find(addr)
	if i < 0 || LineState(c.tags[i]&stateMask) != ExclusiveDirty {
		return 0, false
	}
	c.tags[i] = c.tags[i]&^stateMask | uint64(SharedClean)
	return c.value(i), true
}

// Value reports the stored value of addr, if present.
func (c *Cache) Value(addr int64) (uint64, bool) {
	i := c.find(addr)
	if i < 0 {
		return 0, false
	}
	return c.value(i), true
}

// SetValue updates the stored value of addr (the requester writing into an
// exclusive line). It reports whether the line was present.
func (c *Cache) SetValue(addr int64, v uint64) bool {
	i := c.find(addr)
	if i < 0 {
		return false
	}
	if c.values != nil {
		c.values[i] = v
	}
	return true
}

// Hits reports hit count since the last ResetStats.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses reports miss count since the last ResetStats.
func (c *Cache) Misses() uint64 { return c.misses }

// ResetStats clears hit/miss counters without touching contents.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// Flush invalidates every line, returning all dirty victims (used at the
// end of verification runs to account for unwritten data).
func (c *Cache) Flush() []Victim {
	var dirty []Victim
	for i, w := range c.tags {
		if LineState(w&stateMask) == ExclusiveDirty {
			dirty = append(dirty, Victim{Addr: int64(w &^ stateMask), Dirty: true, Value: c.value(i)})
		}
	}
	clear(c.tags)
	clear(c.lru)
	clear(c.values)
	return dirty
}
