package trace

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// forgedCountFile is a 27-byte BTR2 file whose one frame claims 2^30
// events over a 1-byte payload, with a valid checksum and a trailer
// that agrees. Sizing a decode by the claimed count would allocate
// 8 GiB; the scan must reject the frame instead.
func forgedCountFile() []byte {
	const n = 1 << 30
	payload := []byte{0}
	b := append([]byte{}, magic[:]...)
	b = binary.AppendUvarint(b, n) // granularity
	b = binary.AppendUvarint(b, n) // frame events
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = binary.AppendUvarint(b, 0) // startPC
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	b = append(b, payload...)
	b = binary.AppendUvarint(b, 0) // trailer
	return binary.AppendUvarint(b, n)
}

func TestScanRejectsForgedEventCount(t *testing.T) {
	data := forgedCountFile()
	if len(data) != 27 {
		t.Fatalf("forged file is %d bytes, want 27", len(data))
	}
	path := filepath.Join(t.TempDir(), "forged.btr")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, _, _, _, err := scanSpill(f, 0); !errors.Is(err, ErrCorruptSpill) {
		t.Fatalf("scan: err = %v, want ErrCorruptSpill", err)
	}
	if _, err := OpenSpillHandle(path, 0); !errors.Is(err, ErrCorruptSpill) {
		t.Fatalf("OpenSpillHandle: err = %v, want ErrCorruptSpill", err)
	}
	if rep := VerifySpill(path); !errors.Is(rep.Err, ErrCorruptSpill) {
		t.Fatalf("VerifySpill: err = %v, want ErrCorruptSpill", rep.Err)
	}
}

// forgedGranularityFile is a 20-byte BTR2 file that declares chunks of
// 2^30 events and holds one well-formed 1-event frame: a valid file, as
// a short final chunk may be. Sizing the direction bitmap by the
// declared granularity would allocate 128 MiB per page-in.
func forgedGranularityFile() []byte {
	payload := []byte{0x01, 0x00} // group mask (taken), zero PC delta
	b := append([]byte{}, magic[:]...)
	b = binary.AppendUvarint(b, 1<<30) // granularity
	b = binary.AppendUvarint(b, 1)     // frame events
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = binary.AppendUvarint(b, 0x40) // startPC
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	b = append(b, payload...)
	b = binary.AppendUvarint(b, 0) // trailer
	return binary.AppendUvarint(b, 1)
}

// TestVerifyForgedGranularityBoundsAlloc: verifying and paging in the
// forged-granularity file allocates by the one event it holds, not by
// the granularity its header declares.
func TestVerifyForgedGranularityBoundsAlloc(t *testing.T) {
	data := forgedGranularityFile()
	if len(data) != 20 {
		t.Fatalf("forged file is %d bytes, want 20", len(data))
	}
	path := filepath.Join(t.TempDir(), "granularity.btr")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := VerifySpill(path)
	runtime.ReadMemStats(&after)
	if rep.Err != nil || rep.Chunks != 1 || rep.Events != 1 {
		t.Fatalf("VerifySpill: %+v, want one clean 1-event chunk", rep)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("VerifySpill allocated %d bytes for a 20-byte file", got)
	}
	h, err := OpenSpillHandle(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.f.Close()
	d, err := h.DecodeChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	if d.N != 1 || d.PCs[0] != 0x40 || len(d.Dirs) != 1 || d.Dirs[0] != 1 {
		t.Fatalf("decoded %+v, want one taken event at 0x40 in a 1-word bitmap", d)
	}
}

// fuzzSeeds returns a clean spill and damaged variants of it: cut at a
// frame boundary, cut inside a frame, one flipped payload bit, plus a
// retired BTR1 header, the forged-count file, the forged-granularity
// file and a file whose frames mix 1- and 10-byte deltas.
func fuzzSeeds(f *testing.F) [][]byte {
	path := filepath.Join(f.TempDir(), "seed.btr")
	sr, err := NewStreamRecorder(path, 40, 0)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range syntheticEvents(100, 5) {
		sr.Branch(e.PC, e.Taken)
	}
	h, err := sr.Seal()
	if err != nil {
		f.Fatal(err)
	}
	defer h.f.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	first := h.idx[0]
	frameEnd := first.off + first.plen
	flipped := append([]byte{}, clean...)
	flipped[first.off+first.plen/2] ^= 0x10
	return [][]byte{
		clean,
		clean[:frameEnd],
		clean[:first.off+first.plen/2],
		flipped,
		{'B', 'T', 'R', '1', 0x01, 0x08, 0x00},
		forgedCountFile(),
		forgedGranularityFile(),
		mixedDeltaFile(f, mixedDeltaEvents(90)),
	}
}

// FuzzOpenSpill pins the one BTR2 parser against arbitrary bytes: the
// handle (index scan, then every chunk's page-in) and the verifier must
// either both accept the file and agree on its shape, or both reject it
// with a corruption, bad-magic or short-header error. Neither may
// panic.
func FuzzOpenSpill(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.btr")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var events int64
		h, herr := OpenSpillHandle(path, 0)
		if herr == nil {
			defer h.f.Close()
			for k := 0; k < h.Chunks(); k++ {
				d, err := h.DecodeChunk(k)
				if err != nil {
					herr = err
					break
				}
				events += int64(d.N)
			}
		}
		rep := VerifySpill(path)
		switch {
		case herr == nil && rep.Err == nil:
			if rep.Chunks != h.Chunks() || rep.Events != h.Events() || events != h.Events() {
				t.Fatalf("handle: %d chunks, %d events (%d decoded); verifier: %d chunks, %d events",
					h.Chunks(), h.Events(), events, rep.Chunks, rep.Events)
			}
		case herr != nil && rep.Err != nil:
			for _, err := range []error{herr, rep.Err} {
				if !errors.Is(err, ErrCorruptSpill) && !errors.Is(err, ErrBadMagic) &&
					!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("error outside the corruption classes: %v", err)
				}
			}
		default:
			t.Fatalf("handle and verifier disagree: handle err %v, verifier err %v", herr, rep.Err)
		}
	})
}
