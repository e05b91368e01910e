package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Binary trace format ("BTR2"): a header, then checksummed chunk frames,
// so damage is detected instead of decoded:
//
//	magic       [4]byte  "BTR2"
//	chunkEvents uvarint  the file's chunk granularity
//	frames      *        chunk frames, then one trailer
//
// Each frame is one chunk:
//
//	events   uvarint  events in this chunk (1..chunkEvents; only the
//	                  final data frame may hold fewer than chunkEvents)
//	plen     uvarint  payload length in bytes
//	startPC  uvarint  the PC preceding the chunk's first event
//	crc      u32 LE   CRC32C (Castagnoli) of the payload
//	payload  plen ×   event groups; deltas chain from startPC, and
//	                  groups restart per frame
//
// Each group encodes up to 8 events:
//
//	mask    byte     bit i = direction (1 = taken) of the group's i-th event
//	deltas  1..8 ×   uvarint( zigzag(pc - prevPC) )
//
// Only a frame's final group may hold fewer than 8 events. Branch traces
// revisit a small working set of PCs, so deltas are small: the common
// event costs ~1.1 bytes versus 9 for a fixed-width encoding.
//
// The stream ends with a trailer frame — events == 0 followed by
// uvarint(total events) — so truncation at any byte, frame boundaries
// included, is detectable. Chunks are self-contained (no cross-frame
// delta chaining), so any frame decodes from one bounded read and its
// checksum is verified on every page-in.

var magic = [4]byte{'B', 'T', 'R', '2'}

// castagnoli is the CRC32C polynomial table used for BTR2 per-chunk
// payload checksums (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxChunkPayload bounds a frame's declared payload length; anything
// larger is treated as corruption rather than allocated.
const maxChunkPayload = 1 << 28

// maxChunkEvents bounds a header's declared chunk granularity.
const maxChunkEvents = 1 << 30

// groupSize is the number of events per direction-mask group.
const groupSize = 8

// ErrBadMagic is returned when a file does not begin with the BTR2 header.
var ErrBadMagic = errors.New("trace: bad magic (not a BTR trace)")

// ErrCorruptSpill is the sentinel every spill-corruption error unwraps
// to: checksum mismatches, truncated streams, undecodable chunk bytes.
// Callers branch on errors.Is(err, ErrCorruptSpill) to distinguish
// damage (quarantine the file and re-record) from transient I/O trouble
// (already retried) and plain absence (regenerate).
var ErrCorruptSpill = errors.New("trace: corrupt spill data")

// CorruptError describes detected spill damage: where (Path may be
// empty when the damage is found below the layer that names the file;
// Chunk is -1 for structural damage outside any one chunk) and what. It
// unwraps to ErrCorruptSpill.
type CorruptError struct {
	Path   string
	Chunk  int
	Reason string
}

func (e *CorruptError) Error() string {
	msg := "trace: corrupt spill"
	if e.Path != "" {
		msg += " " + e.Path
	}
	if e.Chunk >= 0 {
		msg += fmt.Sprintf(" chunk %d", e.Chunk)
	}
	return msg + ": " + e.Reason
}

func (e *CorruptError) Unwrap() error { return ErrCorruptSpill }

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// decodeDeltas decodes len(pcs) zigzag-varint PC deltas from the start
// of b into pcs, chaining from pc, and returns the last PC and the bytes
// read; ok is false when b runs out or holds a malformed varint. Both
// delta decoders run it. One-byte varints, most deltas, decode inline.
func decodeDeltas(b []byte, pc uint64, pcs []uint64) (last uint64, read int, ok bool) {
	off := 0
	for i := range pcs {
		var word uint64
		if off < len(b) && b[off] < 0x80 {
			word = uint64(b[off])
			off++
		} else {
			x, w := binary.Uvarint(b[off:])
			if w <= 0 {
				return pc, off, false
			}
			word = x
			off += w
		}
		pc += uint64(unzigzag(word))
		pcs[i] = pc
	}
	return pc, off, true
}

// WriteText streams events from src to w in a line-oriented text format
// ("0x<pc> T|N"), useful for debugging and diffing. It reports the number
// of events written.
func WriteText(w io.Writer, src Source) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for {
		ev, ok, err := src.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			break
		}
		dir := byte('N')
		if ev.Taken {
			dir = 'T'
		}
		if _, err := fmt.Fprintf(bw, "0x%x %c\n", ev.PC, dir); err != nil {
			return n, fmt.Errorf("trace: writing text event: %w", err)
		}
		n++
	}
	return n, bw.Flush()
}

// ReadText parses the text format produced by WriteText.
func ReadText(r io.Reader) ([]Event, error) {
	br := bufio.NewScanner(r)
	br.Buffer(make([]byte, 1<<16), 1<<20)
	var events []Event
	line := 0
	for br.Scan() {
		line++
		text := br.Text()
		if text == "" {
			continue
		}
		var pc uint64
		var dir string
		if _, err := fmt.Sscanf(text, "0x%x %s", &pc, &dir); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		switch dir {
		case "T":
			events = append(events, Event{PC: pc, Taken: true})
		case "N":
			events = append(events, Event{PC: pc, Taken: false})
		default:
			return nil, fmt.Errorf("trace: line %d: direction %q is not T or N", line, dir)
		}
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("trace: scanning text: %w", err)
	}
	return events, nil
}
