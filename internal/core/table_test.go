package core

import "testing"

// classMapOf builds a class map over pcs, with classes cycling through
// every joint class.
func classMapOf(pcs []uint64) ClassMap {
	m := make(ClassMap, len(pcs))
	for i, pc := range pcs {
		m[pc] = JointClass{Taken: Class(i % NumClasses), Transition: Class(i / NumClasses % NumClasses)}
	}
	return m
}

// checkTableAgrees compares the table against the map on every mapped PC
// and on probes the map does not hold.
func checkTableAgrees(t *testing.T, name string, m ClassMap, probes []uint64) {
	t.Helper()
	tbl := NewClassTable(m)
	for pc, jc := range m {
		if got := tbl.Index(pc); got != jc.Flat() {
			t.Errorf("%s: pc %#x: index %d, want %d (class %v)", name, pc, got, jc.Flat(), jc)
		}
	}
	for _, pc := range probes {
		_, inMap := m[pc]
		if inMap {
			continue
		}
		if got := tbl.Index(pc); got != Unclassified {
			t.Errorf("%s: unmapped pc %#x: index %d, want Unclassified", name, pc, got)
		}
	}
	// Distinct PCs get distinct slots, all in range.
	slots := make(map[int]uint64)
	for pc := range m {
		s := tbl.Slot(pc)
		if s < 0 || s >= tbl.Len() {
			t.Fatalf("%s: pc %#x: slot %d outside 0..%d", name, pc, s, tbl.Len())
		}
		if other, dup := slots[s]; dup {
			t.Fatalf("%s: pcs %#x and %#x share slot %d", name, pc, other, s)
		}
		slots[s] = pc
	}
}

func TestClassTableMatchesClassMap(t *testing.T) {
	// Dense: an instrumented workload's base + site<<2 layout, with gaps.
	var dense []uint64
	for s := uint64(0); s < 500; s++ {
		if s%7 != 3 {
			dense = append(dense, 0x400000+s<<2)
		}
	}
	denseProbes := []uint64{0, 0x3ffffc, 0x400000 + 3<<2, 0x400001, 0x400002, 0x400000 + 499<<2 + 1, 0x400000 + 500<<2, ^uint64(0)}
	// Sparse: scattered aligned addresses, and an unaligned set.
	var sparse, unaligned []uint64
	for s := uint64(1); s <= 500; s++ {
		sparse = append(sparse, (s*0x9E3779B97F4A7C15)&^3)
		unaligned = append(unaligned, 0x400000+s*3)
	}
	sparseProbes := []uint64{0, 4, 0x9E3779B97F4A7C14, 0x400000, ^uint64(0) &^ 3}
	cases := []struct {
		name    string
		pcs     []uint64
		probes  []uint64
		isDense bool
	}{
		{"dense", dense, denseProbes, true},
		{"sparse", sparse, sparseProbes, false},
		{"unaligned", unaligned, append(denseProbes, 0x400000+4), false},
		{"single", []uint64{0x1000}, []uint64{0xffc, 0x1001, 0x1004}, true},
		{"empty", nil, []uint64{0, 0x400000}, true},
	}
	for _, tc := range cases {
		m := classMapOf(tc.pcs)
		if got := NewClassTable(m).Dense(); got != tc.isDense {
			t.Errorf("%s: Dense() = %v, want %v", tc.name, got, tc.isDense)
		}
		checkTableAgrees(t, tc.name, m, tc.probes)
	}
}

func TestClassTableWideRangeTakesMap(t *testing.T) {
	// Two aligned PCs further apart than the dense cap.
	m := classMapOf([]uint64{0x1000, 0x1000 + maxDenseSpan<<2})
	if NewClassTable(m).Dense() {
		t.Fatal("a PC range wider than the dense cap built a dense table")
	}
	checkTableAgrees(t, "wide", m, []uint64{0x1004, 0x1000 + maxDenseSpan<<1})
}
