package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"btr/internal/experiments"
	"btr/internal/sched"
	"btr/internal/sim"
	"btr/internal/workload"
)

func testContext(t *testing.T, s *Server) *experiments.Context {
	t.Helper()
	cfg := sim.Config{Scale: testScale, Sched: s.sched}
	ctx := experiments.NewContextShared(cfg, s.shared)
	for _, name := range testSpecs {
		bench, input, _ := strings.Cut(name, "/")
		spec, err := workload.Find(bench, input)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Specs = append(ctx.Specs, spec)
	}
	return ctx
}

// TestStreamCanceledGroupEmitsCanceledRecord: a canceled group never
// produces experiment records — the stream ends with the typed
// "canceled" terminal record and the request is tallied as canceled,
// not completed or failed.
func TestStreamCanceledGroupEmitsCanceledRecord(t *testing.T) {
	s, _ := newTestServer(t, Config{})

	g := s.sched.NewGroup()
	g.Cancel()
	rec := httptest.NewRecorder()
	s.stream(rec, g, []string{"T1"}, testContext(t, s))

	var types []string
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		types = append(types, r.Type)
	}
	if len(types) == 0 || types[len(types)-1] != "canceled" {
		t.Fatalf("record types %v, want terminal canceled", types)
	}
	for _, ty := range types {
		if ty == "experiment" || ty == "summary" {
			t.Fatalf("canceled stream carried a %q record: %v", ty, types)
		}
	}
	m := s.Metrics().Requests
	if m.Canceled != 1 || m.Completed != 0 || m.Failed != 0 {
		t.Fatalf("tallies %+v, want 1 canceled / 0 completed / 0 failed", m)
	}
}

// cancelOnExperiment is a response writer that cancels g as soon as the
// stream writes its first experiment record, so a cancellation lands
// deterministically between two experiments.
type cancelOnExperiment struct {
	*httptest.ResponseRecorder
	g *sched.Group
}

func (w cancelOnExperiment) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(`"type":"experiment"`)) {
		w.g.Cancel()
	}
	return w.ResponseRecorder.Write(p)
}

// TestStreamCanceledAblationEmitsCanceledRecord: a cancellation that
// arrives after the suite run ends the stream at the next ablation with
// the typed "canceled" record — the ablation grid skips its replays and
// returns sim.ErrCanceled — not an "error" record.
func TestStreamCanceledAblationEmitsCanceledRecord(t *testing.T) {
	s, _ := newTestServer(t, Config{})

	g := s.sched.NewGroup()
	rec := httptest.NewRecorder()
	s.stream(cancelOnExperiment{rec, g}, g, []string{"T1", "A1", "T2"}, testContext(t, s))

	var recs []Record
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	var types []string
	for _, r := range recs {
		types = append(types, r.Type)
	}
	want := []string{"start", "experiment", "canceled"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("record types %v, want %v", types, want)
	}
	if recs[1].ID != "T1" {
		t.Fatalf("first experiment %q, want T1", recs[1].ID)
	}
	m := s.Metrics().Requests
	if m.Canceled != 1 || m.Completed != 0 || m.Failed != 0 {
		t.Fatalf("tallies %+v, want 1 canceled / 0 completed / 0 failed", m)
	}
}

// TestDeadlineCancelsRequest: a request whose deadline_ms fires before
// the suite finishes streams a canceled record and frees its slot; the
// next request on the same server runs to completion.
func TestDeadlineCancelsRequest(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	req := Request{Experiments: []string{"T1", "F13"}, Specs: testSpecs, Scale: testScale, DeadlineMS: 1}
	code, recs := post(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200 (deadline cancels the stream, not admission)", code)
	}
	if len(recs) == 0 || recs[len(recs)-1].Type != "canceled" {
		t.Fatalf("records %+v, want terminal canceled", recs)
	}
	m := s.Metrics().Requests
	if m.Canceled != 1 || m.InFlight != 0 {
		t.Fatalf("tallies %+v, want 1 canceled / 0 in flight", m)
	}

	// The slot and scheduler survive: an undeadlined rerun completes.
	code, recs = post(t, ts.URL, Request{Experiments: []string{"T1"}, Specs: testSpecs, Scale: testScale})
	if code != http.StatusOK || len(outputsByID(recs)) != 1 {
		t.Fatalf("post-cancel request: status %d, records %v", code, recs)
	}
	if m := s.Metrics().Requests; m.Completed != 1 || m.InFlight != 0 {
		t.Fatalf("post-cancel tallies %+v, want 1 completed / 0 in flight", m)
	}
}

// TestClientDisconnectCancels is the live-disconnect smoke: the client
// hangs up after the first record, the server cancels the request
// cooperatively, the slot drains and the canceled counter moves —
// without waiting for the suite to finish.
func TestClientDisconnectCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// A deliberately heavy request (50x the test scale): the hang-up
	// below lands microseconds after the start record, so the suite must
	// still be deep in pass 1 — cancellation, not completion, ends it.
	body, err := json.Marshal(Request{Experiments: []string{"T1", "F13"}, Specs: testSpecs, Scale: 50 * testScale})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/experiments", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil { // the start record
		t.Fatalf("reading first record: %v", err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		m := s.Metrics().Requests
		if m.InFlight == 0 && m.Canceled >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never drained the disconnected request: %+v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
