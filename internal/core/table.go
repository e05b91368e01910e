package core

import "math/bits"

// Unclassified is the flat class index of a PC no classification covers.
const Unclassified uint8 = 0xFF

// Flat returns the joint class as one index, Taken*NumClasses+Transition
// (0..120): the layout of per-class counter arrays and steering tables.
func (j JointClass) Flat() uint8 { return uint8(int(j.Taken)*NumClasses + int(j.Transition)) }

// maxDenseSpan caps a dense site table at 4 Mi slots; a PC set spread
// wider than that keeps the map.
const maxDenseSpan = 1 << 22

// Sites numbers a set of static branch PCs with slots 0..Len()-1, so
// per-branch state can live in arrays instead of maps. Instrumented
// workloads place branches at base + site<<2 with small site ids; such
// a compact, word-aligned PC set maps to slots by a subtract and a
// shift, with gaps in the PC range getting slots of their own. Any other
// set — a stored trace with scattered or unaligned addresses — falls
// back to a map from PC to slot.
//
// A Sites is immutable once built and safe for concurrent use.
type Sites struct {
	minPC  uint64
	span   uint64           // dense slot count; 0 in map mode
	sparse map[uint64]int32 // map mode only
}

// NewSites numbers the keys of m.
func NewSites[V any](m map[uint64]V) Sites {
	if len(m) == 0 {
		return Sites{}
	}
	minPC, maxPC := ^uint64(0), uint64(0)
	aligned := true
	for pc := range m {
		minPC = min(minPC, pc)
		maxPC = max(maxPC, pc)
		aligned = aligned && pc&3 == 0
	}
	if aligned && (maxPC-minPC)>>2 < maxDenseSpan {
		return Sites{minPC: minPC, span: (maxPC-minPC)>>2 + 1}
	}
	sparse := make(map[uint64]int32, len(m))
	for pc := range m {
		sparse[pc] = int32(len(sparse))
	}
	return Sites{sparse: sparse}
}

// Len returns the number of slots.
func (s *Sites) Len() int {
	if s.sparse != nil {
		return len(s.sparse)
	}
	return int(s.span)
}

// Dense reports whether slots resolve by arithmetic rather than the map.
func (s *Sites) Dense() bool { return s.sparse == nil }

// Slot returns pc's slot, or -1 when pc has none. In a dense table a PC
// between two sites has a slot of its own, which per-slot arrays mark
// as empty.
func (s *Sites) Slot(pc uint64) int {
	// Rotating the offset's two low bits to the top turns an unaligned
	// PC into an out-of-range one, so one compare checks both.
	if i := bits.RotateLeft64(pc-s.minPC, -2); i < s.span {
		return int(i)
	}
	return s.sparseSlot(pc)
}

func (s *Sites) sparseSlot(pc uint64) int {
	if i, ok := s.sparse[pc]; ok {
		return int(i)
	}
	return -1
}

// ClassTable is a ClassMap laid out over Sites: one byte per slot
// holding the branch's flat joint class (Unclassified for slots no
// classified branch occupies). The simulator builds one per input and
// every per-event class lookup — attribution, hybrid and static-bias
// steering, class-derived confidence, interference filtering — reads it
// instead of hashing into the map.
//
// A ClassTable is immutable once built and safe for concurrent use.
type ClassTable struct {
	Sites
	flat []uint8
}

// NewClassTable lays classes out over their sites.
func NewClassTable(classes ClassMap) *ClassTable {
	t := &ClassTable{Sites: NewSites(classes)}
	t.flat = make([]uint8, t.Len())
	for i := range t.flat {
		t.flat[i] = Unclassified
	}
	for pc, jc := range classes {
		t.flat[t.Slot(pc)] = jc.Flat()
	}
	return t
}

// Index returns pc's flat joint class, or Unclassified.
func (t *ClassTable) Index(pc uint64) uint8 {
	if s := t.Slot(pc); s >= 0 {
		return t.flat[s]
	}
	return Unclassified
}

// At returns the flat joint class of slot s (Unclassified for an empty
// slot).
func (t *ClassTable) At(s int) uint8 { return t.flat[s] }

// SizeBytes is the table's heap footprint, for cache accounting.
func (t *ClassTable) SizeBytes() int64 {
	return int64(len(t.flat)) + int64(len(t.sparse))*16
}
