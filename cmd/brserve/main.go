// brserve serves the paper's experiments over HTTP: POST a JSON
// request naming experiments, suite inputs, scale and byte budgets to
// /v1/experiments and the rendered artifacts stream back as NDJSON,
// bit-identical to brexp's files for the same configuration. Every
// request runs as a session over one shared work-stealing scheduler
// and one shared recorded-trace + profile cache, so repeated and
// concurrent requests reuse each other's pass-1 and sweep work; admission
// control (bounded in-flight slots, a bounded wait queue, per-request
// scale/budget caps) answers 429 past capacity. /metrics reports the
// substrate counters, /healthz the drain state. SIGINT/SIGTERM drains
// gracefully: new requests get 503, in-flight ones finish.
//
// A request whose client disconnects — or whose deadline fires
// (-deadline server-wide, deadline_ms per request) — is canceled
// cooperatively: its task grid unwinds at the next task boundaries,
// its admission slot frees, and its stream ends with a "canceled"
// record.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"btr/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8420", "listen address")
	workers := flag.Int("workers", 0, "shared scheduler workers (0 = GOMAXPROCS)")
	maxInFlight := flag.Int("maxinflight", 0, "max concurrently running requests (0 = 4)")
	maxQueue := flag.Int("maxqueue", 0, "max requests waiting for an in-flight slot (0 = 16, negative = reject immediately when busy)")
	maxScale := flag.Float64("maxscale", 0, "per-request workload-scale cap (0 = 8)")
	maxMemBudget := flag.Int64("maxmembudget", 0, "per-request -membudget cap in bytes (0 = 1 GiB)")
	maxDecodedBudget := flag.Int64("maxdecodedbudget", 0, "per-request -decodedbudget cap in bytes (0 = 1 GiB)")
	cacheBytes := flag.Int64("cachebytes", 0, "shared trace-cache resident-byte budget (0 = default)")
	cachedir := flag.String("cachedir", "", "spill shared recorded traces to BTR2 files here (persists across restarts)")
	deadline := flag.Duration("deadline", 0, "default per-request deadline; past it the request is canceled and its stream ends with a canceled record (0 = unbounded, deadline_ms in the request overrides)")
	drainTimeout := flag.Duration("draintimeout", 30*time.Second, "max wait for in-flight requests during shutdown")
	flag.Parse()

	s := serve.New(serve.Config{
		Workers:          *workers,
		MaxInFlight:      *maxInFlight,
		MaxQueue:         *maxQueue,
		MaxScale:         *maxScale,
		MaxMemBudget:     *maxMemBudget,
		MaxDecodedBudget: *maxDecodedBudget,
		CacheBytes:       *cacheBytes,
		CacheDir:         *cachedir,
		DefaultDeadline:  *deadline,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("brserve: listening on %s (workers=%d)", *addr, s.Sched().Workers())
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("brserve: %v", err)
	case <-ctx.Done():
	}

	// Drain: stop admitting, let in-flight requests stream to completion,
	// then retire the shared scheduler.
	log.Printf("brserve: draining (timeout %v)", *drainTimeout)
	s.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("brserve: shutdown: %v", err)
	}
	s.Close()

	m := s.Metrics()
	fmt.Printf("requests: completed=%d rejected=%d failed=%d canceled=%d\n",
		m.Requests.Completed, m.Requests.Rejected, m.Requests.Failed, m.Requests.Canceled)
	fmt.Printf("sched: executed=%d steals=%d submits=%d parks=%d workers=%d\n",
		m.Sched.Executed, m.Sched.Steals, m.Sched.InjectorSubmits, m.Sched.Parks, m.Sched.Workers)
	fmt.Printf("trace cache: hits=%d misses=%d loads=%d spills=%d evicted=%d quarantined=%d\n",
		m.TraceCache.Hits, m.TraceCache.Misses, m.TraceCache.Loads, m.TraceCache.Spills, m.TraceCache.Evicted, m.TraceCache.Quarantined)
}
