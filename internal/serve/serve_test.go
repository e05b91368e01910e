package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"btr/internal/experiments"
	"btr/internal/rng"
	"btr/internal/sim"
	"btr/internal/trace"
	"btr/internal/workload"
)

// testSpecs is the small two-input suite the HTTP tests request:
// real registry workloads, cheap at the test scale.
var testSpecs = []string{"compress/bigtest.in", "perl/primes.pl"}

const testScale = 0.02

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post sends one experiment request and returns the status code and
// decoded NDJSON records.
func post(t *testing.T, url string, req Request) (int, []Record) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Logf("non-200 response: %+v", e)
		return resp.StatusCode, nil
	}
	var recs []Record
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, recs
}

func outputsByID(recs []Record) map[string]string {
	out := make(map[string]string)
	for _, r := range recs {
		if r.Type == "experiment" {
			out[r.ID] = r.Output
		}
	}
	return out
}

// TestStreamBitIdenticalToBrexp: the streamed experiment records carry
// byte-for-byte the artifact text brexp writes for the same
// configuration.
func TestStreamBitIdenticalToBrexp(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	ids := []string{"T1", "F13"}
	code, recs := post(t, ts.URL, Request{Experiments: ids, Specs: testSpecs, Scale: testScale})
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	got := outputsByID(recs)

	// The reference: a fully private context with the identical sim
	// config — exactly what brexp builds for these flags.
	refCfg := sim.Config{Scale: testScale, Cache: trace.NewCache(0, "", workload.RegistryFingerprint()), Profiles: sim.NewProfileCache()}
	refCtx := experiments.NewContext(refCfg)
	var specs []workload.Spec
	for _, name := range testSpecs {
		bench, input, _ := strings.Cut(name, "/")
		spec, err := workload.Find(bench, input)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	refCtx.Specs = specs
	for _, id := range ids {
		e, err := experiments.Find(id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Run(refCtx, &buf); err != nil {
			t.Fatal(err)
		}
		if got[id] != buf.String() {
			t.Fatalf("experiment %s: streamed output differs from brexp render\nstreamed:\n%s\nreference:\n%s", id, got[id], buf.String())
		}
	}
	// Stream shape: start first, summary last, summary counts the inputs.
	if recs[0].Type != "start" {
		t.Fatalf("first record %q, want start", recs[0].Type)
	}
	last := recs[len(recs)-1]
	if last.Type != "summary" || last.Inputs != len(testSpecs) || last.Dropped != 0 || last.Events <= 0 {
		t.Fatalf("bad summary record: %+v", last)
	}
}

// TestConcurrentRequestsShareSubstrate is the acceptance walk: two
// concurrent requests after a warm one do zero generator runs (the
// trace-cache miss counter IS the generator-run counter for registry
// specs), stream identical bytes, and /metrics reports nonzero
// scheduler steals and cache hits.
func TestConcurrentRequestsShareSubstrate(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	req := Request{Experiments: []string{"T1", "F13"}, Specs: testSpecs, Scale: testScale}
	code, warm := post(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("warm status %d", code)
	}
	warmOut := outputsByID(warm)
	missesAfterWarm := s.Metrics().TraceCache.Misses
	if missesAfterWarm != int64(len(testSpecs)) {
		t.Fatalf("warm request missed %d times, want %d (one generator run per input)", missesAfterWarm, len(testSpecs))
	}

	var wg sync.WaitGroup
	outs := make([]map[string]string, 2)
	for i := range outs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, recs := post(t, ts.URL, req)
			if code != http.StatusOK {
				t.Errorf("concurrent request %d: status %d", i, code)
				return
			}
			outs[i] = outputsByID(recs)
		}()
	}
	wg.Wait()
	for i, out := range outs {
		for id, text := range warmOut {
			if out[id] != text {
				t.Fatalf("concurrent request %d: experiment %s diverged from warm request", i, id)
			}
		}
	}

	m := s.Metrics()
	if m.TraceCache.Misses != missesAfterWarm {
		t.Fatalf("concurrent requests ran generators: %d misses, want %d", m.TraceCache.Misses, missesAfterWarm)
	}
	if m.TraceCache.Hits < int64(2*len(testSpecs)) {
		t.Fatalf("trace cache hits %d, want >= %d", m.TraceCache.Hits, 2*len(testSpecs))
	}
	if m.ProfileCache.Hits < int64(2*len(testSpecs)) {
		t.Fatalf("profile cache hits %d, want >= %d", m.ProfileCache.Hits, 2*len(testSpecs))
	}
	if m.Sched.Steals == 0 {
		t.Fatal("scheduler steals = 0 after three suite requests on 4 workers")
	}
	if m.Sched.Executed == 0 || m.Sched.InjectorSubmits == 0 {
		t.Fatalf("scheduler counters not moving: %+v", m.Sched)
	}
	if m.Requests.Completed != 3 || m.Requests.Rejected != 0 || m.Requests.InFlight != 0 {
		t.Fatalf("request tallies %+v, want 3 completed / 0 rejected / 0 in flight", m.Requests)
	}
}

// TestRepeatedRequestIsByteIdentical: a second identical request is
// served from the profile cache — no input is swept again, so the
// summed chunk-window counters stay put — and streams byte-identical
// experiment records, in the same order.
func TestRepeatedRequestIsByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := Request{Experiments: []string{"T2", "F13", "F15"}, Specs: testSpecs, Scale: testScale}
	experimentRecords := func() []Record {
		code, recs := post(t, ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("status %d, want 200", code)
		}
		var out []Record
		for _, r := range recs {
			if r.Type == "experiment" {
				out = append(out, r)
			}
		}
		if len(out) != len(req.Experiments) {
			t.Fatalf("%d experiment records, want %d: %+v", len(out), len(req.Experiments), recs)
		}
		return out
	}
	first := experimentRecords()
	before := s.Metrics()
	second := experimentRecords()
	after := s.Metrics()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("record %d diverged on the repeated request:\nfirst:  %+v\nsecond: %+v", i, first[i], second[i])
		}
	}
	if got := after.ProfileCache.Hits - before.ProfileCache.Hits; got != int64(len(testSpecs)) {
		t.Fatalf("repeated request hit the profile cache %d times, want %d", got, len(testSpecs))
	}
	if after.Mem.DecodedEvicted != before.Mem.DecodedEvicted || after.Mem.DecodedHits != before.Mem.DecodedHits {
		t.Fatalf("repeated request swept a chunk window: mem %+v -> %+v", before.Mem, after.Mem)
	}
}

// TestMetricsMemCountsEachRunOnce: /metrics' mem block sums what each
// request's runs did. A budgeted cold request pages its spilled chunks
// in once, for the sweep; an identical second request is all
// profile-cache hits and adds nothing; a request that misses the
// profile cache (another window) but replays the cached recordings
// adds their footprint once and its own page-ins — pass 1's replay and
// the sweep's, twice the first request's — not the recordings'
// lifetime counts.
func TestMetricsMemCountsEachRunOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := Request{Experiments: []string{"T2"}, Specs: testSpecs, Scale: testScale, MemBudget: 4096, DecodedBudget: 1 << 16}
	run := func(req Request) sim.MemStats {
		if code, _ := post(t, ts.URL, req); code != http.StatusOK {
			t.Fatalf("status %d, want 200", code)
		}
		return s.Metrics().Mem
	}
	first := run(req)
	if first.RecordedBytes == 0 || first.PageIns == 0 {
		t.Fatalf("budgeted cold request recorded or paged nothing: %+v", first)
	}
	if second := run(req); second != first {
		t.Fatalf("a warm request changed mem: %+v -> %+v", first, second)
	}
	req.Window = 12
	third := run(req)
	if got := third.RecordedBytes - first.RecordedBytes; got != first.RecordedBytes {
		t.Fatalf("replaying cold request added %d recorded bytes, want %d", got, first.RecordedBytes)
	}
	if got := third.PageIns - first.PageIns; got != 2*first.PageIns {
		t.Fatalf("replaying cold request added %d page-ins, want %d (pass 1 and the sweep)", got, 2*first.PageIns)
	}
}

// TestAdmissionControl: with every in-flight slot held and no queue,
// the next request bounces with 429 and the rejected counter moves.
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: -1})

	s.slots <- struct{}{} // occupy the only slot
	code, _ := post(t, ts.URL, Request{Specs: testSpecs, Scale: testScale})
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d with slots full and no queue, want 429", code)
	}
	<-s.slots
	if got := s.Metrics().Requests.Rejected; got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}
	// With the slot free the same request is admitted.
	code, recs := post(t, ts.URL, Request{Experiments: []string{"T1"}, Specs: testSpecs, Scale: testScale})
	if code != http.StatusOK || len(outputsByID(recs)) != 1 {
		t.Fatalf("post-release request: status %d, records %v", code, recs)
	}
}

// TestPerRequestLimits: over-cap scale and budgets are refused with
// 429; malformed specs, unknown ids and a negative or over-cap Figure 15
// window with structured 400s.
func TestPerRequestLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxScale: 2, MaxMemBudget: 1 << 20, MaxDecodedBudget: 1 << 20})

	for name, req := range map[string]Request{
		"scale":         {Scale: 4},
		"membudget":     {MemBudget: 1 << 21},
		"decodedbudget": {DecodedBudget: 1 << 21},
	} {
		if code, _ := post(t, ts.URL, req); code != http.StatusTooManyRequests {
			t.Fatalf("%s over limit: status %d, want 429", name, code)
		}
	}

	do := func(req Request) (int, ErrorResponse) {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e
	}
	if code, e := do(Request{Specs: []string{"nosuch/input"}}); code != http.StatusBadRequest || e.Spec != "nosuch/input" || e.Error == "" {
		t.Fatalf("unknown spec: status %d body %+v, want structured 400", code, e)
	}
	if code, e := do(Request{Specs: []string{"malformed"}}); code != http.StatusBadRequest || e.Spec != "malformed" {
		t.Fatalf("malformed spec: status %d body %+v, want structured 400", code, e)
	}
	if code, e := do(Request{Experiments: []string{"Z9"}}); code != http.StatusBadRequest || e.ID != "Z9" {
		t.Fatalf("unknown experiment: status %d body %+v, want structured 400", code, e)
	}
	// A deadline past time.Duration's range would wrap, to a negative or
	// a sub-millisecond bound.
	for _, ms := range []int64{-1, 18446744073710, math.MaxInt64} {
		if code, e := do(Request{DeadlineMS: ms}); code != http.StatusBadRequest || !strings.Contains(e.Error, "deadline_ms") {
			t.Fatalf("deadline_ms %d: status %d body %+v, want structured 400", ms, code, e)
		}
	}
	// Every input allocates window+1 histogram bins: an unbounded window
	// would let one request exhaust the server's memory.
	for _, window := range []int{-1, MaxWindow + 1, math.MaxInt} {
		if code, e := do(Request{Window: window}); code != http.StatusBadRequest || !strings.Contains(e.Error, "window") {
			t.Fatalf("window %d: status %d body %+v, want structured 400", window, code, e)
		}
	}
}

// TestRemovedKnobsIgnored: requests from clients that still send the
// retired sweep knobs are decoded as if the fields were absent and
// served normally.
func TestRemovedKnobsIgnored(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"experiments":["T1"],"specs":["perl/primes.pl"],"scale":0.02,"chunktasks":3,"snapshotranges":4}`
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var last Record
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
	}
	if last.Type != "summary" {
		t.Fatalf("stream ended with %+v, want a summary", last)
	}
}

// TestDroppedInputsStreamAsStructuredRecords (satellite): an input
// whose generator panics is reported on the stream as a typed record
// carrying spec name and recovered cause — not just brexp stderr.
func TestDroppedInputsStreamAsStructuredRecords(t *testing.T) {
	s, _ := newTestServer(t, Config{})

	good := workload.NewSpec("synth", "ok", 3000, 7, func(tr *workload.T, r *rng.Rand, target int64) {
		for tr.N() < target {
			tr.B(0, r.Uint64()&1 == 0)
		}
	})
	bad := workload.NewSpec("synth", "boom", 3000, 7, func(tr *workload.T, r *rng.Rand, target int64) {
		panic("generator bug")
	})
	cfg := sim.Config{Scale: 1, Sched: s.sched}
	ctx := experiments.NewContextShared(cfg, s.shared)
	ctx.Specs = []workload.Spec{good, bad}

	rec := httptest.NewRecorder()
	s.stream(rec, s.sched.NewGroup(), []string{"T1"}, ctx)

	var dropped, summary *Record
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		rec := new(Record)
		if err := json.Unmarshal(sc.Bytes(), rec); err != nil {
			t.Fatal(err)
		}
		switch rec.Type {
		case "dropped":
			dropped = rec
		case "summary":
			summary = rec
		}
	}
	if dropped == nil {
		t.Fatal("no dropped record on the stream")
	}
	if dropped.Spec != "synth/boom" || !strings.Contains(dropped.Error, "generator bug") {
		t.Fatalf("dropped record %+v, want spec synth/boom with the recovered cause", dropped)
	}
	if summary == nil || summary.Dropped != 1 || summary.Inputs != 1 {
		t.Fatalf("summary %+v, want 1 input / 1 dropped", summary)
	}
}

// TestHealthzAndDrain: healthz flips to 503 on BeginDrain and new
// requests are refused while in-flight ones finish (the scheduler is
// still alive until Close). Closing the drained server returns the
// goroutines and the cache dir's temporary spill files to their
// baselines from before it started.
func TestHealthzAndDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{CacheDir: dir})
	if code, _ := post(t, ts.URL, Request{Experiments: []string{"T1"}, Specs: testSpecs, Scale: testScale, MemBudget: 4096}); code != http.StatusOK {
		t.Fatalf("pre-drain POST status %d, want 200", code)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d, want 200", resp.StatusCode)
	}

	s.BeginDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz %d, want 503", resp.StatusCode)
	}
	if code, _ := post(t, ts.URL, Request{Specs: testSpecs, Scale: testScale}); code != http.StatusServiceUnavailable {
		t.Fatalf("draining POST status %d, want 503", code)
	}
	if !s.Metrics().Requests.Draining {
		t.Fatal("metrics do not report draining")
	}
	ts.Close()
	s.Close()
	settleLeaks(t, "after the drain", base, dir)
}

// TestMetricsDocumentShape: the JSON document decodes into the
// documented field names.
func TestMetricsDocumentShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, _ := post(t, ts.URL, Request{Experiments: []string{"T1"}, Specs: testSpecs, Scale: testScale}); code != http.StatusOK {
		t.Fatalf("request status %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"requests", "sched", "trace_cache", "profile_cache", "mem"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("metrics document missing %q: %v", key, m)
		}
	}
	var sst struct {
		Executed int64 `json:"executed"`
		Workers  int   `json:"workers"`
	}
	if err := json.Unmarshal(m["sched"], &sst); err != nil {
		t.Fatal(err)
	}
	if sst.Executed == 0 || sst.Workers != 4 {
		t.Fatalf("sched metrics %+v, want executed > 0 and 4 workers", sst)
	}
}
