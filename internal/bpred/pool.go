package bpred

import (
	"math/bits"
	"sync"
)

// Slab recycles one column type's power-of-two tables through one
// sync.Pool per length, so a sweep that builds the same predictors for
// every input reuses the last input's tables instead of allocating and
// zeroing new ones. Every element of a table Get returns is init.
type Slab[T comparable] struct {
	init  T
	pools [31]sync.Pool
}

// The columns bpred's predictors take from their slabs.
var (
	counterSlab = Slab[Counter2]{init: 1}
	byteSlab    Slab[uint8]
	u16Slab     Slab[uint16]
	u64Slab     Slab[uint64]
	dynSlab     Slab[dynEntry]
)

// Get returns a table of 2^bits elements, allocating when the pool is
// empty.
func (s *Slab[T]) Get(bits int) []T {
	if t, ok := s.pools[bits].Get().(*[]T); ok {
		return *t
	}
	t := make([]T, 1<<bits)
	s.reset(t)
	return t
}

// Put resets the table *t for the next Get of its length and sets *t to
// nil, so a use after release panics instead of sharing the storage.
func (s *Slab[T]) Put(t *[]T) {
	tab := *t
	*t = nil
	if len(tab) == 0 || len(tab)&(len(tab)-1) != 0 {
		return
	}
	s.reset(tab)
	s.pools[bits.TrailingZeros(uint(len(tab)))].Put(&tab)
}

// reset sets every element of t to init, by doubling copies (memmove)
// for a nonzero init.
func (s *Slab[T]) reset(t []T) {
	var zero T
	if s.init == zero {
		clear(t)
		return
	}
	t[0] = s.init
	for i := 1; i < len(t); i *= 2 {
		copy(t[i:], t[:i])
	}
}

// release returns a composite's component's tables to their slabs, if
// it has a Release.
func release(p Predictor) {
	if r, ok := p.(interface{ Release() }); ok {
		r.Release()
	}
}
