package trace

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// refDecodeFrame is a plain binary.Uvarint loop over a frame payload's
// groups, the oracle frame.decode's inline one-byte path must agree
// with: the PCs, the group masks, and whether the payload decodes.
func refDecodeFrame(b []byte, pc uint64, n int) (pcs []uint64, masks []byte, ok bool) {
	pcs, off := make([]uint64, n), 0
	for i := range pcs {
		if i%groupSize == 0 {
			if off >= len(b) {
				return nil, nil, false
			}
			masks = append(masks, b[off])
			off++
		}
		x, w := binary.Uvarint(b[off:])
		if w <= 0 {
			return nil, nil, false
		}
		off += w
		pc += uint64(unzigzag(x))
		pcs[i] = pc
	}
	return pcs, masks, true
}

// randomPayload encodes a frame payload of n events: a random mask
// byte per group, then varint deltas whose lengths are drawn from 1 to
// 10 bytes, the 10-byte ones including the largest uint64. Some
// payloads get a random damage: a cut, an overlong varint, or a 10-byte
// varint that overflows 64 bits.
func randomPayload(r *uint64, n int) []byte {
	next := func() uint64 {
		*r ^= *r << 13
		*r ^= *r >> 7
		*r ^= *r << 17
		return *r
	}
	var b []byte
	for i := 0; i < n; i++ {
		if i%groupSize == 0 {
			b = append(b, byte(next()))
		}
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

// TestDecodeDeltasMatchesUvarint: over random payloads mixing 1- to
// 10-byte deltas, clean and damaged, frame.decode returns what a
// binary.Uvarint loop returns — the same PCs and directions, and a
// corruption error exactly where the loop fails.
func TestDecodeDeltasMatchesUvarint(t *testing.T) {
	r := uint64(0x9e3779b97f4a7c15)
	for trial := 0; trial < 5000; trial++ {
		n := int(r%24) + 1
		b := randomPayload(&r, n)
		want, masks, wantOK := refDecodeFrame(b, 0x400000, n)
		fr := frame{payload: b, startPC: 0x400000, crc: crc32.Checksum(b, castagnoli), n: n}
		got, err := fr.decode(0, nil, nil)
		if (err == nil) != wantOK {
			t.Fatalf("trial %d: err = %v, Uvarint loop ok = %v (bytes % x)", trial, err, wantOK, b)
		}
		if !wantOK {
			if !errors.Is(err, ErrCorruptSpill) {
				t.Fatalf("trial %d: err = %v, want ErrCorruptSpill", trial, err)
			}
			continue
		}
		if !slices.Equal(got.PCs, want) {
			t.Fatalf("trial %d: decoded %x, Uvarint loop %x", trial, got.PCs, want)
		}
		for i := 0; i < n; i++ {
			if got.Dirs[i>>6]>>(i&63)&1 != uint64(masks[i/groupSize]>>(i%groupSize)&1) {
				t.Fatalf("trial %d: event %d's direction differs from its mask bit", trial, i)
			}
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

// TestFrameDecodeMixedDeltas: frames that mix 1- and 10-byte deltas,
// including short final groups, decode event for event whether they
// are paged in from a BTR2 file or held resident by a ChunkRecorder.
func TestFrameDecodeMixedDeltas(t *testing.T) {
	events := mixedDeltaEvents(203)
	path := filepath.Join(t.TempDir(), "mixed.btr")
	if err := os.WriteFile(path, mixedDeltaFile(t, events), 0o644); err != nil {
		t.Fatal(err)
	}
	spilled, err := OpenSpillHandle(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer spilled.f.Close()
	rec := NewChunkRecorder(40)
	for _, e := range events {
		rec.Branch(e.PC, e.Taken)
	}
	for _, h := range []*Handle{spilled, NewResidentHandle(rec.Trace())} {
		if got := replayHandle(h); !slices.Equal(got, events) {
			t.Fatalf("decoded events differ from the recorded ones (spilled %v)", h.Spilled())
		}
	}
}
