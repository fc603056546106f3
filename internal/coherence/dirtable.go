package coherence

// dirTable holds one home's directory entries, indexed by the dense slot
// AddressMap.HomeSlot assigns to each line the home serves. It replaces
// the former map[int64]*dirEntry, whose hash-and-box cost sat on the
// critical path of every remote miss (the home-node traversal the paper's
// latency figures hinge on).
//
// Layout: the first dirDenseSlots slots — the region prefix where the
// paper's latency and bandwidth probes place their datasets — live in
// directly indexed pages, allocated lazily in dirPageLines-sized blocks,
// so the common lookup is two array indexings. Slots beyond the dense
// window (large or uniformly random footprints, e.g. GUPS over a 64 MB
// region) fall back to an open-addressed spill table: entries there are
// pooled in fixed-size slabs and never individually allocated, and since
// directory entries are never deleted the probe loop needs no tombstones.
// Either way an entry, once created, has a stable address for the lifetime
// of the system, which lets in-flight transactions hold *dirEntry across
// event boundaries.
type dirTable struct {
	pages [dirDensePages]*[dirPageLines]dirEntry
	spill dirSpill
}

const (
	// dirPageLines is the dense-page granule; 4096 lines cover 256 KB of
	// region per page at the GS1280's 64-byte lines.
	dirPageShift = 12
	dirPageLines = 1 << dirPageShift
	// dirDensePages bounds the directly indexed window to the first 32 K
	// slots (2 MB of region) per home; beyond that, density can no longer
	// be assumed and the spill table is the better trade.
	dirDensePages = 8
	dirDenseSlots = dirDensePages * dirPageLines
)

// get returns the entry at slot, creating it if needed. A freshly created
// entry is zero-valued, which is exactly the dirIdle "memory owns the
// line" state, so creation needs no initialization.
func (t *dirTable) get(slot int64) *dirEntry {
	if slot < dirDenseSlots {
		pg := t.pages[slot>>dirPageShift]
		if pg == nil {
			pg = new([dirPageLines]dirEntry) //lint:alloc-ok lazy page fault, once per 4096-line dense page
			t.pages[slot>>dirPageShift] = pg
		}
		return &pg[slot&(dirPageLines-1)]
	}
	return t.spill.get(slot)
}

// find returns the entry at slot or nil; it never allocates. Quiesced-state
// inspection (LineValue, invariant checks) uses it.
func (t *dirTable) find(slot int64) *dirEntry {
	if slot < dirDenseSlots {
		pg := t.pages[slot>>dirPageShift]
		if pg == nil {
			return nil
		}
		return &pg[slot&(dirPageLines-1)]
	}
	return t.spill.find(slot)
}

// forEach visits every entry that has been part of a transaction, with
// its slot. Dense entries whose used flag was never set are skipped:
// they are lines that were never referenced, exactly the lines the old
// map never held — so invariant checking covers the identical set.
func (t *dirTable) forEach(visit func(slot int64, e *dirEntry)) {
	for p, pg := range t.pages {
		if pg == nil {
			continue
		}
		for i := range pg {
			if e := &pg[i]; e.used {
				visit(int64(p)*dirPageLines+int64(i), e)
			}
		}
	}
	t.spill.forEach(visit)
}

// dirSpill is the sparse-overflow fallback: open addressing with linear
// probing over (slot → slab index), with entries pooled in fixed slabs.
type dirSpill struct {
	// keys[i] holds slot+1 so the zero value means "empty".
	keys []int64
	// idx[i] is the slab position of keys[i]'s entry.
	idx []int32
	// slabs allocate entries spillSlabSize at a time; an entry's address
	// never changes once handed out.
	slabs []*[spillSlabSize]dirEntry
	n     int
}

const spillSlabSize = 256

func (sp *dirSpill) entryAt(i int32) *dirEntry {
	return &sp.slabs[i>>8][i&(spillSlabSize-1)]
}

func (sp *dirSpill) find(slot int64) *dirEntry {
	if len(sp.keys) == 0 {
		return nil
	}
	mask := uint64(len(sp.keys) - 1)
	h := (uint64(slot) * 0x9E3779B97F4A7C15) >> 32 & mask
	for {
		k := sp.keys[h]
		if k == 0 {
			return nil
		}
		if k == slot+1 {
			return sp.entryAt(sp.idx[h])
		}
		h = (h + 1) & mask
	}
}

func (sp *dirSpill) get(slot int64) *dirEntry {
	if len(sp.keys) == 0 {
		sp.grow()
	}
	for {
		mask := uint64(len(sp.keys) - 1)
		h := (uint64(slot) * 0x9E3779B97F4A7C15) >> 32 & mask
		for {
			k := sp.keys[h]
			if k == slot+1 {
				return sp.entryAt(sp.idx[h])
			}
			if k == 0 {
				break
			}
			h = (h + 1) & mask
		}
		// Not present: grow only now, on an actual insert. Growing on the
		// way in — as this function originally did — meant a table whose
		// population sat exactly at the load-factor threshold paid a full
		// rehash on its next lookup of an existing key, a multi-megabyte
		// allocation spike in the middle of a steady-state measurement
		// window (the read-miss benchmarks' stray bytes/op).
		if sp.n >= len(sp.keys)*3/4 {
			sp.grow()
			continue // re-probe in the grown table
		}
		if sp.n&(spillSlabSize-1) == 0 && sp.n>>8 == len(sp.slabs) {
			//lint:alloc-ok slab-pool refill, amortized across spill inserts
			sp.slabs = append(sp.slabs, new([spillSlabSize]dirEntry))
		}
		i := int32(sp.n)
		sp.n++
		sp.keys[h] = slot + 1
		sp.idx[h] = i
		return sp.entryAt(i)
	}
}

// grow doubles the probe arrays (minimum 64 slots) and rehashes. The
// slabs — and therefore entry addresses — are untouched.
func (sp *dirSpill) grow() {
	newCap := 2 * len(sp.keys)
	if newCap == 0 {
		newCap = 64
	}
	oldKeys, oldIdx := sp.keys, sp.idx
	sp.keys = make([]int64, newCap) //lint:alloc-ok rehash on insert only, amortized doubling
	sp.idx = make([]int32, newCap)  //lint:alloc-ok rehash on insert only, amortized doubling
	mask := uint64(newCap - 1)
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		h := (uint64(k-1) * 0x9E3779B97F4A7C15) >> 32 & mask
		for sp.keys[h] != 0 {
			h = (h + 1) & mask
		}
		sp.keys[h] = k
		sp.idx[h] = oldIdx[i]
	}
}

func (sp *dirSpill) forEach(visit func(slot int64, e *dirEntry)) {
	for i, k := range sp.keys {
		if k != 0 {
			visit(k-1, sp.entryAt(sp.idx[i]))
		}
	}
}
