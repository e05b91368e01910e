package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"btr/internal/experiments"
	"btr/internal/workload"
)

// FuzzRequest decodes arbitrary bodies the way handleExperiments does —
// a json.Decoder over a 1 MiB MaxBytesReader — and resolves them against
// the per-request caps of TestPerRequestLimits. Nothing may panic; a
// refusal is a structured 400 or 429; and an accepted request stays
// inside every cap, with every experiment id and spec found in the
// registries.
func FuzzRequest(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"experiments":["T1","F13"],"specs":["perl/primes.pl"],"scale":0.02}`,
		`{"experiments":["T1"],"specs":["perl/primes.pl"],"scale":0.02,"chunktasks":3,"snapshotranges":4}`,
		`{"scale":4}`,
		`{"membudget":2097152}`,
		`{"decodedbudget":2097152}`,
		`{"decodedbudget":-1,"membudget":4096,"window":8,"deadline_ms":1}`,
		`{"specs":["nosuch/input"]}`,
		`{"specs":["malformed"]}`,
		`{"experiments":["Z9"]}`,
		`{"window":-1}`,
		`{"window":1025}`,
		`{"window":9223372036854775807}`,
		`{"window":17179869184}`,
		`{"scale":-1}`,
		`{"scale":1e-300}`,
		`{"deadline_ms":-1}`,
		`{"deadline_ms":18446744073710}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	s := &Server{cfg: Config{MaxScale: 2, MaxMemBudget: 1 << 20, MaxDecodedBudget: 1 << 20}}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		r := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), 1<<20)
		if err := json.NewDecoder(r).Decode(&req); err != nil {
			return // the handler answers 400 before resolving
		}
		ids, specs, cfg, rej := s.resolve(&req)
		if rej != nil {
			if rej.status != http.StatusBadRequest && rej.status != http.StatusTooManyRequests {
				t.Fatalf("%+v refused with status %d", req, rej.status)
			}
			if rej.body.Error == "" {
				t.Fatalf("%+v refused without an error message", req)
			}
			return
		}
		if !(cfg.Scale > 0 && cfg.Scale <= s.cfg.maxScale()) {
			t.Fatalf("%+v accepted at scale %v, outside (0, %v]", req, cfg.Scale, s.cfg.maxScale())
		}
		if cfg.HardDistanceWindow < 0 || cfg.HardDistanceWindow > MaxWindow {
			t.Fatalf("%+v accepted with window %d, outside 0..%d", req, cfg.HardDistanceWindow, MaxWindow)
		}
		if cfg.MemBudget < 0 || cfg.MemBudget > s.cfg.maxMemBudget() || cfg.DecodedBudget > s.cfg.maxDecodedBudget() {
			t.Fatalf("%+v accepted with budgets %d/%d past the caps", req, cfg.MemBudget, cfg.DecodedBudget)
		}
		if d := s.deadlineFor(&req); d < 0 || d.Milliseconds() != req.DeadlineMS {
			t.Fatalf("%+v accepted with deadline %v", req, d)
		}
		if len(req.Experiments) == 0 && len(ids) != len(experiments.All()) {
			t.Fatalf("empty experiment list resolved to %d ids, want all %d", len(ids), len(experiments.All()))
		}
		for _, id := range ids {
			if _, err := experiments.Find(id); err != nil {
				t.Fatalf("%+v accepted with unknown experiment %q", req, id)
			}
		}
		if len(specs) != len(req.Specs) {
			t.Fatalf("%+v resolved %d of %d specs", req, len(specs), len(req.Specs))
		}
		for i, spec := range specs {
			bench, input, _ := strings.Cut(req.Specs[i], "/")
			if _, err := workload.Find(bench, input); err != nil || spec.Bench != bench || spec.Input != input {
				t.Fatalf("%+v resolved spec %q to %s", req, req.Specs[i], spec.Name())
			}
		}
	})
}
