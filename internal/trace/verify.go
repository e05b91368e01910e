package trace

import "errors"

// VerifyReport is the result of auditing one spill file.
type VerifyReport struct {
	Path   string
	Chunks int
	Events int64
	Err    error // nil = the file passed every check
}

// OK reports whether the file passed.
func (r VerifyReport) OK() bool { return r.Err == nil }

// VerifySpill audits a spill file end to end: header, frame structure,
// event counts and trailer via the index scan, then every chunk's
// checksum and payload decodability through the handle's page-in path,
// exactly the checks a replay would apply. The returned report carries
// whatever was learned before the first failure.
func VerifySpill(path string) VerifyReport {
	rep := VerifyReport{Path: path}
	h, err := OpenSpillHandle(path, 0)
	if err != nil {
		rep.Err = withPath(err, path)
		return rep
	}
	defer h.f.Close()
	rep.Chunks, rep.Events = h.nchunks, h.events
	var pcs, dirs []uint64
	for k := 0; k < h.nchunks; k++ {
		d, err := h.DecodeChunkInto(k, pcs, dirs)
		if err != nil {
			rep.Err = withPath(err, path)
			return rep
		}
		pcs, dirs = d.PCs, d.Dirs
	}
	return rep
}

// withPath names the damaged file in a corruption error.
func withPath(err error, path string) error {
	var ce *CorruptError
	if errors.As(err, &ce) {
		ce.Path = path
	}
	return err
}
