package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"btr/internal/serve"
)

// serverChild is the body of a server process: the serve handler with
// its default configuration, as brserve mounts it, on a loopback port
// it prints as its first line of output. SIGTERM drains it the way
// brserve drains.
func serverChild() error {
	s := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Println(ln.Addr().String())
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = srv.Shutdown(sctx)
	s.Close()
	return err
}

// server is a running server process.
type server struct {
	cmd  *exec.Cmd
	base string
}

// startServer starts a server process and waits until /healthz
// answers 200.
func (r *run) startServer() (*server, error) {
	cmd := exec.Command(r.self, "-child", "serve")
	cmd.Env = append(os.Environ(), "TMPDIR="+r.workDir)
	cmd.SysProcAttr = childAttr()
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	srv := &server{cmd: cmd}
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		srv.stop()
		return nil, fmt.Errorf("server address: %w", err)
	}
	srv.base = "http://" + line[:len(line)-1]
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		resp, err := http.Get(srv.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return srv, nil
			}
		}
		if time.Now().After(deadline) {
			srv.stop()
			return nil, fmt.Errorf("server not healthy after 30s: %v", err)
		}
	}
}

// stop drains the server, waits for it to exit and returns its rusage
// (nil if it did not exit cleanly).
func (s *server) stop() *syscall.Rusage {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	if err := s.cmd.Wait(); err != nil {
		return nil
	}
	return s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
}

// reqResult is one request as the client saw it.
type reqResult struct {
	latency  time.Duration // send until the end of the NDJSON stream
	ttfb     time.Duration // send until the first record
	serverMS int64         // the summary record's elapsed_ms
	events   int64
	digests  map[string]string
}

// serveIDs are the artifacts of every served request.
var serveIDs = []string{"T2", "F13"}

// request sends one serve-mixed request for bench, at the workload's
// scale and budgets, and reads the whole stream. Any status but 200, or any record but start, experiment and
// summary, is an error.
func (r *run) request(client *http.Client, base, bench string) (reqResult, error) {
	_, names := benchSpecNames()
	body, _ := json.Marshal(serve.Request{
		Experiments:   serveIDs,
		Specs:         names[bench],
		Scale:         r.def.scale,
		MemBudget:     r.def.memBudget,
		DecodedBudget: r.def.decodedBudget,
	})
	res := reqResult{digests: make(map[string]string, len(serveIDs))}
	start := time.Now()
	resp, err := client.Post(base+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return res, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	summary := false
	for sc.Scan() {
		if res.ttfb == 0 {
			res.ttfb = time.Since(start)
		}
		var rec serve.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return res, fmt.Errorf("bad record: %w", err)
		}
		switch rec.Type {
		case "start":
		case "experiment":
			res.digests[rec.ID] = digest([]byte(rec.Output))
		case "summary":
			summary = true
			res.events, res.serverMS = rec.Events, rec.ElapsedMS
		default:
			return res, fmt.Errorf("%s record: %s %s", rec.Type, rec.Spec, rec.Error)
		}
	}
	res.latency = time.Since(start)
	if err := sc.Err(); err != nil {
		return res, err
	}
	if !summary {
		return res, errors.New("stream ended without a summary record")
	}
	return res, nil
}

// checkRequest counts one request and checks its artifacts against the
// committed digests for its benchmark. Served specs are always the
// registry's, so every seed is checked by digest.
func (r *run) checkRequest(bench string, res reqResult, err error) bool {
	r.attempt++
	if err != nil {
		r.fail("request %s: %v", bench, err)
		return false
	}
	if bad := checkDigests(res.digests, r.digests.want(r.def.scale, bench), serveIDs); len(bad) > 0 {
		r.fail("request %s: %s", bench, joinProblems(bad))
		return false
	}
	return true
}

// setupServer starts a server and sends one warm request per request
// shape (benchmark), so the timed requests find warm caches.
func (r *run) setupServer(client *http.Client) (*server, time.Duration, error) {
	start := time.Now()
	srv, err := r.startServer()
	if err != nil {
		r.attempt++
		r.fail("server start: %v", err)
		return nil, 0, err
	}
	for _, b := range requestOrder(r.seed, 0) {
		res, err := r.request(client, srv.base, b)
		r.checkRequest(b, res, err)
	}
	return srv, time.Since(start), nil
}

// serveRun is the result of serve-mixed's end-to-end run.
type serveRun struct {
	setups []float64
	reqs   []reqResult
	window time.Duration
	cpu    time.Duration
	rssMiB float64
	shapes int
}

// requestTimeout bounds one request, so a stuck server fails the run
// instead of stalling it.
const requestTimeout = 60 * time.Second

// minRequests makes a run long enough that ten samples lie beyond p90.
const minRequests = 100

// runServe sets up setupRuns times (server start until healthy, plus
// one warm request per shape) and keeps the last server. It then runs
// a closed loop of nproc clients, each sending its next request when
// the previous one has completed, taking requests in rounds of one per
// benchmark (requestOrder), for r.seconds and at least minRequests
// requests.
func (r *run) runServe(setupRuns, clients int) serveRun {
	out := serveRun{shapes: len(requestOrder(r.seed, 0))}
	tr := &http.Transport{MaxIdleConnsPerHost: clients}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: requestTimeout}
	var srv *server
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			srv.stop()
		}
		s, d, err := r.setupServer(client)
		if err != nil {
			return out
		}
		srv = s
		out.setups = append(out.setups, d.Seconds())
	}

	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	cpu0 := procCPU(srv.cmd.Process.Pid)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if time.Since(start) >= r.seconds && i >= minRequests {
					return
				}
				b := requestOrder(r.seed, i/int64(out.shapes))[i%int64(out.shapes)]
				res, err := r.request(client, srv.base, b)
				mu.Lock()
				if r.checkRequest(b, res, err) {
					out.reqs = append(out.reqs, res)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.window = time.Since(start)
	out.cpu = procCPU(srv.cmd.Process.Pid) - cpu0
	if ru := srv.stop(); ru != nil {
		out.rssMiB = rusageRSSMiB(ru)
	} else {
		r.fail("server did not exit cleanly")
	}
	return out
}

// samples lists each set-up and request latency for the run record.
func (s serveRun) samples() map[string]any {
	var lat []float64
	for _, q := range s.reqs {
		lat = append(lat, q.latency.Seconds()*1000)
	}
	return map[string]any{"setup_s": s.setups, "latency_ms": lat}
}

func (s serveRun) metrics(m metricSet) error {
	if len(s.reqs) == 0 || len(s.setups) == 0 {
		return errors.New("no request succeeded")
	}
	var lat []float64
	var events int64
	for _, q := range s.reqs {
		lat = append(lat, q.latency.Seconds()*1000)
		events += q.events
	}
	secs := s.window.Seconds()
	perSec := float64(len(s.reqs)) / secs
	m.set("setup_s", median(s.setups), "s")
	// One pass of serve-mixed is one request per shape.
	m.set("wall_s", float64(s.shapes)/perSec, "s")
	// Per run, the server's CPU time is about nproc × the loop's length
	// whenever the closed loop keeps every core busy, so it is reported
	// per pass, like wall_s.
	m.set("cpu_s", s.cpu.Seconds()*float64(s.shapes)/float64(len(s.reqs)), "s")
	m.set("peak_rss_mib", s.rssMiB, "MiB")
	m.set("events_per_s", float64(events)/secs, "events/s")
	m.set("req_p50_ms", median(lat), "ms")
	m.set("req_p90_ms", latencyTail(lat, 90), "ms")
	m.set("req_per_s", perSec, "req/s")
	return nil
}
