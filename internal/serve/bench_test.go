package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"btr/internal/workload"
)

// nullWriter is a ResponseWriter that keeps only the status and the
// byte count, so the benchmark measures the handler, not a recorder.
type nullWriter struct {
	header http.Header
	code   int
	n      int
}

func (w *nullWriter) Header() http.Header         { return w.header }
func (w *nullWriter) WriteHeader(code int)        { w.code = code }
func (w *nullWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *nullWriter) Flush()                      {}

// BenchmarkWarmRequest drives the handler in-process with serve-mixed's
// request shape, T2+F13 over one benchmark's inputs at scale 0.1, in
// turn over every benchmark, on caches warmed by one untimed request
// each: the cost of a warm request without the network, in time and
// B/op.
func BenchmarkWarmRequest(b *testing.B) {
	var benches []string
	names := map[string][]string{}
	for _, s := range workload.Suite() {
		if names[s.Bench] == nil {
			benches = append(benches, s.Bench)
		}
		names[s.Bench] = append(names[s.Bench], s.Name())
	}
	bodies := make([][]byte, len(benches))
	for i, bench := range benches {
		var err error
		if bodies[i], err = json.Marshal(Request{Experiments: []string{"T2", "F13"}, Specs: names[bench], Scale: 0.1}); err != nil {
			b.Fatal(err)
		}
	}
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	serve := func(body []byte) {
		r, err := http.NewRequest(http.MethodPost, "/v1/experiments", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		w := &nullWriter{header: http.Header{}}
		h.ServeHTTP(w, r)
		if w.code != 0 && w.code != http.StatusOK || w.n == 0 {
			b.Fatalf("status %d, %d bytes", w.code, w.n)
		}
	}
	for _, body := range bodies {
		serve(body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(bodies[i%len(bodies)])
	}
}
