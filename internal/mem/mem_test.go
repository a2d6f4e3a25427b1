package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPagedMemBasic(t *testing.T) {
	m := NewPagedMem()
	if m.Load(0x1234560) != 0 {
		t.Error("fresh memory should read 0")
	}
	m.Store(0x1234560, 42)
	if m.Load(0x1234560) != 42 {
		t.Error("store/load roundtrip failed")
	}
	m.Store(0x1234560, 0)
	if m.Load(0x1234560) != 0 {
		t.Error("overwrite with zero failed")
	}
}

func TestPagedMemQuickRoundtrip(t *testing.T) {
	f := func(addrs []int64, vals []int64) bool {
		m := NewPagedMem()
		ref := map[int64]int64{}
		for i, a := range addrs {
			a &= 0xFFFF_FFF8
			if a < 0 {
				a = -a
			}
			v := int64(i)
			if i < len(vals) {
				v = vals[i]
			}
			m.Store(a, v)
			ref[a&^7] = v
		}
		for a, v := range ref {
			if m.Load(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPagedMemCloneAndEqual(t *testing.T) {
	m := NewPagedMem()
	for i := int64(0); i < 1000; i++ {
		m.Store(i*8, i*i)
	}
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Store(80, 999)
	if m.Equal(c) {
		t.Fatal("modified clone still equal")
	}
	if m.Load(80) == 999 {
		t.Fatal("clone shares storage")
	}
	d := m.Diff(c, 10)
	if len(d) != 1 || d[0] != 80 {
		t.Errorf("diff = %v, want [80]", d)
	}
}

func TestPagedMemZeroPageEqualsAbsent(t *testing.T) {
	a := NewPagedMem()
	b := NewPagedMem()
	a.Store(0x5000, 7)
	a.Store(0x5000, 0) // page exists, all zero
	if !a.Equal(b) {
		t.Error("zero-filled page should equal absent page")
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache("l1", 1024, 2, 64) // 16 lines, 8 sets
	hit, _ := c.Access(0, false)
	if hit {
		t.Error("first access should miss")
	}
	hit, _ = c.Access(8, false) // same line
	if !hit {
		t.Error("same-line access should hit")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache("l1", 2*64*2, 2, 64) // 2 sets, 2 ways
	// Three lines mapping to the same set: 0, 2*64, 4*64 (set = line % 2).
	c.Access(0, true) // dirty
	c.Access(2*64, false)
	c.Access(0, false) // touch line 0 so line 2*64 is LRU
	_, ev := c.Access(4*64, false)
	if !ev.Valid || ev.Line != 2 || ev.Dirty {
		t.Errorf("eviction = %+v, want clean line 2", ev)
	}
	// Line 0 must still be present and dirty.
	if !c.Lookup(0) {
		t.Error("LRU evicted the wrong line")
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := NewCache("l1", 2*64*2, 2, 64)
	c.Access(0, true)
	c.Access(2*64, true)
	_, ev := c.Access(4*64, false) // evicts line 0 (LRU)
	if !ev.Valid || !ev.Dirty {
		t.Errorf("expected dirty eviction, got %+v", ev)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache("l1", 1024, 2, 64)
	c.Access(0, true)
	present, dirty := c.InvalidateLine(c.Line(0))
	if !present || !dirty {
		t.Error("invalidate should find the dirty line")
	}
	if c.Lookup(0) {
		t.Error("line still present after invalidate")
	}
}

func TestCacheWorkingSetFits(t *testing.T) {
	// A working set equal to cache capacity must reach ~100% hits on the
	// second pass with LRU and power-of-two strides.
	c := NewCache("l1", 32*1024, 8, 64)
	for pass := 0; pass < 2; pass++ {
		for a := int64(0); a < 32*1024; a += 64 {
			c.Access(a, false)
		}
	}
	if c.Hits < 500 {
		t.Errorf("resident working set hits = %d", c.Hits)
	}
	if got := c.MissRate(); got > 0.51 {
		t.Errorf("miss rate %v too high for resident set", got)
	}
}

func TestDRAMCacheDirectMapped(t *testing.T) {
	d := NewDRAMCache(2*64, 64) // 2 sets
	hit, _, _ := d.Access(0, true)
	if hit {
		t.Error("cold miss expected")
	}
	hit, _, _ = d.Access(0, false)
	if !hit {
		t.Error("hit expected")
	}
	// Conflicting line (same set): evicts dirty line 0.
	_, victimDirty, victimLine := d.Access(2*64, false)
	if !victimDirty || victimLine != 0 {
		t.Errorf("victim = dirty=%v line=%d, want dirty line 0", victimDirty, victimLine)
	}
}

func TestWriteBufferOccupancyAndStall(t *testing.T) {
	w := NewWriteBuffer(2, 10)
	now := w.Insert(100, 0)
	if now != 100 {
		t.Errorf("insert into empty buffer should not stall, got %d", now)
	}
	now = w.Insert(100, 0)
	if now != 100 {
		t.Errorf("second insert should fit, got %d", now)
	}
	// Buffer full: third insert at 100 stalls until head drains at 110.
	now = w.Insert(100, 0)
	if now != 110 {
		t.Errorf("full buffer should stall to 110, got %d", now)
	}
	if w.FullStall != 10 {
		t.Errorf("FullStall = %d, want 10", w.FullStall)
	}
}

func TestWriteBufferPersistDelay(t *testing.T) {
	w := NewWriteBuffer(8, 5)
	w.Insert(10, 50) // persist path holds the line until cycle 50
	if w.Delayed != 1 {
		t.Errorf("Delayed = %d, want 1", w.Delayed)
	}
	if w.Occupancy(54) != 1 {
		t.Errorf("entry should still be draining at 54 (done at 55)")
	}
	if w.Occupancy(56) != 0 {
		t.Errorf("entry should be gone at 56")
	}
}

func TestWriteBufferAvgOccupancyLow(t *testing.T) {
	// Sparse inserts with fast drain: average occupancy near zero, like the
	// paper's Figure 6 (0.39 entries).
	w := NewWriteBuffer(32, 4)
	rng := rand.New(rand.NewSource(1))
	now := int64(0)
	for i := 0; i < 1000; i++ {
		now += int64(20 + rng.Intn(30))
		w.Insert(now, 0)
	}
	if got := w.AvgOccupancy(); got > 0.5 {
		t.Errorf("avg occupancy = %v, want < 0.5", got)
	}
}

// TestPagedMemDiffDeterministic: Diff's address sample must not inherit
// map iteration order. Images differing on many pages (some present on
// only one side) give the same sample on every call, ascending.
func TestPagedMemDiffDeterministic(t *testing.T) {
	a, b := NewPagedMem(), NewPagedMem()
	for pg := int64(0); pg < 64; pg++ {
		addr := pg * pageWords * 8
		a.Store(addr+8, pg+1)
		if pg%3 != 0 {
			b.Store(addr+16, pg+1) // pg%3 == 0: page only in a
		}
	}
	b.Store(1000*pageWords*8, 1) // page only in b
	first := a.Diff(b, 8)
	if len(first) != 8 {
		t.Fatalf("diff sample has %d addresses, want 8", len(first))
	}
	for i := 1; i < len(first); i++ {
		if first[i] <= first[i-1] {
			t.Fatalf("diff sample not ascending: %v", first)
		}
	}
	if first[0] != 8 {
		t.Fatalf("diff sample starts at %#x, want the lowest differing word 0x8", first[0])
	}
	for run := 0; run < 20; run++ {
		got := a.Diff(b, 8)
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("run %d: diff sample %v != first sample %v", run, got, first)
			}
		}
	}
	all := a.Diff(b, 1<<20)
	if last := all[len(all)-1]; last != 1000*pageWords*8 {
		t.Fatalf("b-only page missing from the full diff (last %#x)", last)
	}
}
