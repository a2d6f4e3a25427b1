// Package mem provides the memory-system substrate of the cWSP machine
// model: a paged functional memory (the architectural and NVM images), a
// set-associative LRU cache model, a direct-mapped DRAM cache model, and
// the L1D write buffer whose drain the cWSP hardware delays to prevent the
// stale-read race (paper Section V-A1).
package mem

import "slices"

const (
	pageShift = 9 // 512 words (4 KiB) per page
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// pcEntries is the size of the per-image direct-mapped page-pointer
// cache that short-circuits the page map on the hot Load/Store paths.
const pcEntries = 256

// PagedMem is a sparse, word-granularity memory image. Addresses are byte
// addresses; accesses are aligned 8-byte words. Pages are allocated on
// first write, so multi-megabyte footprints stay cheap. A small
// direct-mapped cache of page pointers keeps the simulator's hot
// load/store loops off the map hash for the (overwhelmingly common)
// repeated-page accesses; it is transparent — the map remains the sole
// owner of every page.
type PagedMem struct {
	pages map[int64]*[pageWords]int64

	cacheKey  [pcEntries]int64
	cachePage [pcEntries]*[pageWords]int64
}

// NewPagedMem returns an empty image.
func NewPagedMem() *PagedMem {
	return &PagedMem{pages: map[int64]*[pageWords]int64{}}
}

// page returns the resident page for key (nil when absent), consulting
// the pointer cache first.
func (m *PagedMem) page(key int64) *[pageWords]int64 {
	i := key & (pcEntries - 1)
	if p := m.cachePage[i]; p != nil && m.cacheKey[i] == key {
		return p
	}
	p := m.pages[key]
	if p != nil {
		m.cacheKey[i], m.cachePage[i] = key, p
	}
	return p
}

// Load reads the word at addr (0 if the page was never written).
func (m *PagedMem) Load(addr int64) int64 {
	w := addr >> 3
	p := m.page(w >> pageShift)
	if p == nil {
		return 0
	}
	return p[w&pageMask]
}

// Store writes the word at addr.
func (m *PagedMem) Store(addr, val int64) {
	w := addr >> 3
	key := w >> pageShift
	p := m.page(key)
	if p == nil {
		p = new([pageWords]int64)
		m.pages[key] = p
		i := key & (pcEntries - 1)
		m.cacheKey[i], m.cachePage[i] = key, p
	}
	p[w&pageMask] = val
}

// Clone deep-copies the image.
func (m *PagedMem) Clone() *PagedMem {
	c := NewPagedMem()
	for k, p := range m.pages {
		np := *p
		c.pages[k] = &np
	}
	return c
}

// Equal reports whether two images hold identical contents (zero-filled
// pages compare equal to absent pages).
func (m *PagedMem) Equal(o *PagedMem) bool {
	return m.subsetEq(o) && o.subsetEq(m)
}

func (m *PagedMem) subsetEq(o *PagedMem) bool {
	for k, p := range m.pages {
		q := o.pages[k]
		if q == nil {
			for _, v := range p {
				if v != 0 {
					return false
				}
			}
			continue
		}
		if *p != *q {
			return false
		}
	}
	return true
}

// Diff returns up to max differing word addresses between m and o, in
// ascending address order (pages are visited in sorted key order, like
// Digest, so the sample is the same on every run).
func (m *PagedMem) Diff(o *PagedMem, max int) []int64 {
	var out []int64
	for _, k := range sortedKeys(m, o) {
		p, q := m.pages[k], o.pages[k]
		for i := 0; i < pageWords; i++ {
			var v, w int64
			if p != nil {
				v = p[i]
			}
			if q != nil {
				w = q[i]
			}
			if v != w {
				out = append(out, ((k<<pageShift)|int64(i))<<3)
				if len(out) >= max {
					return out
				}
			}
		}
	}
	return out
}

// sortedKeys returns the union of the images' page keys, ascending.
func sortedKeys(ims ...*PagedMem) []int64 {
	var keys []int64
	for _, im := range ims {
		for k := range im.pages {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// EqualWhere reports whether the images agree on every word whose address
// satisfies keep.
func (m *PagedMem) EqualWhere(o *PagedMem, keep func(addr int64) bool) bool {
	check := func(a, b *PagedMem) bool {
		for k, p := range a.pages {
			q := b.pages[k]
			for i, v := range p {
				var w int64
				if q != nil {
					w = q[i]
				}
				if v != w {
					addr := ((k << pageShift) | int64(i)) << 3
					if keep(addr) {
						return false
					}
				}
			}
		}
		return true
	}
	return check(m, o) && check(o, m)
}

// Pages returns the number of resident pages (for footprint assertions).
func (m *PagedMem) Pages() int { return len(m.pages) }

// Digest returns a 64-bit FNV-1a digest of the image's logical contents.
// Pages are hashed in sorted key order and all-zero pages are skipped, so
// two images that compare Equal always digest identically regardless of
// their allocation histories.
func (m *PagedMem) Digest() uint64 {
	keys := sortedKeys(m)

	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, k := range keys {
		p := m.pages[k]
		zero := true
		for _, v := range p {
			if v != 0 {
				zero = false
				break
			}
		}
		if zero {
			continue
		}
		word(uint64(k))
		for _, v := range p {
			word(uint64(v))
		}
	}
	return h
}
