package trace

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// refDecodeDeltas is the plain binary.Uvarint loop decodeDeltas
// replaces: the oracle its one-byte fast path must agree with.
func refDecodeDeltas(b []byte, pc uint64, n int) ([]uint64, int, bool) {
	pcs, off := make([]uint64, n), 0
	for i := range pcs {
		x, w := binary.Uvarint(b[off:])
		if w <= 0 {
			return nil, off, false
		}
		off += w
		pc += uint64(unzigzag(x))
		pcs[i] = pc
	}
	return pcs, off, true
}

// randomDeltas encodes n varints whose lengths are drawn from 1 to 10
// bytes, the 10-byte ones including the largest uint64, and returns the
// bytes with a random damage applied to some of them: a cut, an
// overlong varint, or a 10-byte varint that overflows 64 bits.
func randomDeltas(r *uint64, n int) []byte {
	next := func() uint64 {
		*r ^= *r << 13
		*r ^= *r >> 7
		*r ^= *r << 17
		return *r
	}
	var b []byte
	for i := 0; i < n; i++ {
		v := next()
		switch bytes := int(next()%10) + 1; {
		case bytes == 10 && v%4 == 0:
			v = ^uint64(0)
		case bytes == 10:
			v |= 1 << 63
		default:
			v &= 1<<(7*bytes) - 1
		}
		b = binary.AppendUvarint(b, v)
	}
	switch next() % 8 {
	case 0:
		b = b[:next()%uint64(len(b)+1)]
	case 1:
		b = append(b[:next()%uint64(len(b)+1)], 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	case 2:
		b = append(b[:next()%uint64(len(b)+1)], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02)
	}
	return b
}

// TestDecodeDeltasMatchesUvarint: over random mixes of 1- to 10-byte
// deltas, clean and damaged, decodeDeltas returns what a binary.Uvarint
// loop returns — the same PCs and byte count, and a failure exactly
// where the loop fails.
func TestDecodeDeltasMatchesUvarint(t *testing.T) {
	r := uint64(0x9e3779b97f4a7c15)
	for trial := 0; trial < 5000; trial++ {
		n := int(r%24) + 1
		b := randomDeltas(&r, n)
		want, wantRead, wantOK := refDecodeDeltas(b, 0x400000, n)
		got := make([]uint64, n)
		last, read, ok := decodeDeltas(b, 0x400000, got)
		if ok != wantOK {
			t.Fatalf("trial %d: ok = %v, Uvarint loop says %v (bytes % x)", trial, ok, wantOK, b)
		}
		if !ok {
			continue
		}
		if read != wantRead || !slices.Equal(got, want) || last != want[n-1] {
			t.Fatalf("trial %d: decoded %x (%d bytes, last %x), Uvarint loop %x (%d bytes)", trial, got, read, last, want, wantRead)
		}
	}
}

// mixedDeltaEvents alternates one-byte hops with jumps across the
// address space, whose deltas take the maximum 10 varint bytes.
func mixedDeltaEvents(n int) []Event {
	events := make([]Event, n)
	pc := uint64(0x400000)
	for i := range events {
		if i%3 == 2 {
			pc ^= 1 << 63
		} else {
			pc += 4
		}
		events[i] = Event{PC: pc, Taken: i%5 < 2}
	}
	return events
}

// mixedDeltaFile records mixedDeltaEvents into a BTR2 file of 40-event
// chunks and returns its bytes.
func mixedDeltaFile(tb testing.TB, events []Event) []byte {
	path := filepath.Join(tb.TempDir(), "mixed.btr")
	sr, err := NewStreamRecorder(path, 40, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range events {
		sr.Branch(e.PC, e.Taken)
	}
	h, err := sr.Seal()
	if err != nil {
		tb.Fatal(err)
	}
	h.f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestFrameDecodeMixedDeltas: a BTR2 file whose frames mix 1- and
// 10-byte deltas, including short final groups, pages back in event for
// event, through the frame decoder and the in-memory chunk decoder
// alike.
func TestFrameDecodeMixedDeltas(t *testing.T) {
	events := mixedDeltaEvents(203)
	path := filepath.Join(t.TempDir(), "mixed.btr")
	if err := os.WriteFile(path, mixedDeltaFile(t, events), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := OpenSpillHandle(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.f.Close()
	rec := NewChunkRecorder(40)
	for _, e := range events {
		rec.Branch(e.PC, e.Taken)
	}
	rep := rec.Trace().NewReplayer()
	var got, fromMemory []Event
	for k := 0; k < h.Chunks(); k++ {
		d, err := h.DecodeChunk(k)
		if err != nil {
			t.Fatal(err)
		}
		pcs, dirs, n, ok := rep.NextChunk()
		if !ok || n != d.N {
			t.Fatalf("chunk %d: in-memory replay has %d events, frame %d", k, n, d.N)
		}
		for i := 0; i < d.N; i++ {
			got = append(got, Event{PC: d.PCs[i], Taken: d.Dirs[i>>6]>>(i&63)&1 == 1})
			fromMemory = append(fromMemory, Event{PC: pcs[i], Taken: dirs[i>>6]>>(i&63)&1 == 1})
		}
	}
	if !slices.Equal(got, events) || !slices.Equal(fromMemory, events) {
		t.Fatal("decoded events differ from the recorded ones")
	}
}
