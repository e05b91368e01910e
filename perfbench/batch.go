package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"

	"btr/internal/workload"
)

// run holds one benchmark invocation's settings and its tally of
// checked operations (passes or requests, set-up included).
type run struct {
	def      workloadDef
	seed     uint64
	specs    []workload.Spec // the suite under seed, at the workload's scale
	seconds  time.Duration
	self     string // this executable, re-run for pass and server processes
	workDir  string // scratch space inside the checkout
	digests  digestSet
	attempt  int
	failed   int
	problems []string
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// passTimeout bounds one pass process, so a hung pass fails the run
// instead of stalling it.
const passTimeout = 120 * time.Second

// childAttr makes a child process die with the benchmark, so an
// interrupted run leaves no pass or server process behind.
func childAttr() *syscall.SysProcAttr { return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} }

// passSample is one pass process as the benchmark saw it from outside.
type passSample struct {
	wall   time.Duration
	cpu    time.Duration
	rssMiB float64
	rep    passReport
}

// runPass runs one pass in a fresh process. path "" runs the workload
// as defined; "retained" or "streamed" switch its budgets, for the
// cross-path check of re-seeded runs. The process gets a fresh temp
// directory, so unnamed spill files land in a new directory each pass.
func (r *run) runPass(path, spanPath string) (passSample, error) {
	tmp, err := os.MkdirTemp(r.workDir, "pass-")
	if err != nil {
		return passSample{}, err
	}
	defer os.RemoveAll(tmp)
	args := []string{"-child", "pass", "-workload", r.def.name, "-path", path}
	if r.seed != 0 {
		args = append(args, "-specseeds", formatSeeds(r.specs))
	}
	if spanPath != "" {
		args = append(args, "-spans", spanPath)
	}
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.self, args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	cmd.SysProcAttr = childAttr()
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return passSample{}, fmt.Errorf("pass process: %w", err)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	s := passSample{wall: wall, cpu: rusageCPU(ru), rssMiB: rusageRSSMiB(ru)}
	if err := json.Unmarshal(stdout.Bytes(), &s.rep); err != nil {
		return passSample{}, fmt.Errorf("pass report: %w", err)
	}
	return s, nil
}

// checkPass counts one pass and checks it: no dropped input, and every
// artifact in ids equal to the committed digest (seed 0) or to ref, the
// first pass of this run (other seeds).
func (r *run) checkPass(what string, s passSample, err error, ref *passSample, ids []string) bool {
	r.attempt++
	if err != nil {
		r.fail("%s: %v", what, err)
		return false
	}
	if len(s.rep.Dropped) > 0 {
		r.fail("%s: dropped inputs %v", what, s.rep.Dropped)
		return false
	}
	want := r.digests.want(r.def.scale, "suite")
	if r.seed != 0 {
		if ref == nil {
			return true
		}
		want = ref.rep.Digests
		if s.rep.Events != ref.rep.Events {
			r.fail("%s: %d events, first pass had %d", what, s.rep.Events, ref.rep.Events)
			return false
		}
	}
	if bad := checkDigests(s.rep.Digests, want, ids); len(bad) > 0 {
		r.fail("%s: %s", what, joinProblems(bad))
		return false
	}
	return true
}

// batch is the result of a batch workload's end-to-end run.
type batch struct {
	setups []float64
	passes []passSample
	events int64
	window time.Duration
}

// runBatch sets up setupRuns times (each a fresh process running one
// untimed warm-up pass), then times fresh-process passes until the run
// has measured for r.seconds. A re-seeded run ends with one untimed
// pass on the other path (streamed for a retained workload and the
// reverse) over the 20 suite artifacts, which must agree with the
// timed passes.
func (r *run) runBatch(setupRuns int) batch {
	var b batch
	var ref *passSample
	for i := 0; i < setupRuns; i++ {
		s, err := r.runPass("", "")
		if r.checkPass(fmt.Sprintf("set-up pass %d", i), s, err, ref, r.def.ids) {
			if ref == nil {
				ref = &s
			}
			b.setups = append(b.setups, s.wall.Seconds())
		}
	}
	start := time.Now()
	for i := 0; time.Since(start) < r.seconds || i < 3; i++ {
		s, err := r.runPass("", "")
		if r.checkPass(fmt.Sprintf("pass %d", i), s, err, ref, r.def.ids) {
			b.passes = append(b.passes, s)
			b.events = s.rep.Events
		}
	}
	b.window = time.Since(start)
	if r.seed != 0 && ref != nil {
		other := "retained"
		if r.def.memBudget == 0 {
			other = "streamed"
		}
		s, err := r.runPass(other, "")
		r.checkPass(other+" cross-check pass", s, err, ref, suiteIDs())
	}
	return b
}

// samples lists each set-up and timed pass for the run record.
func (b batch) samples() map[string]any {
	var wall, cpu, rss []float64
	for _, p := range b.passes {
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		rss = append(rss, p.rssMiB)
	}
	return map[string]any{"setup_s": b.setups, "wall_s": wall, "cpu_s": cpu, "rss_mib": rss}
}

func (b batch) metrics(m metricSet) error {
	if len(b.passes) == 0 || len(b.setups) == 0 {
		return errors.New("no pass succeeded")
	}
	var wall, cpu, rss []float64
	for _, p := range b.passes {
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		rss = append(rss, p.rssMiB)
	}
	w := median(wall)
	m.set("setup_s", median(b.setups), "s")
	m.set("wall_s", w, "s")
	m.set("cpu_s", median(cpu), "s")
	m.set("peak_rss_mib", median(rss), "MiB")
	m.set("events_per_s", float64(b.events)/w, "events/s")
	// A batch pass is the workload's one request. A run holds a few
	// passes, too few to support any tail percentile, so the p90 key
	// carries the median (see README.md).
	m.set("req_p50_ms", w*1000, "ms")
	m.set("req_p90_ms", latencyTail(wall, 90)*1000, "ms")
	m.set("req_per_s", float64(len(b.passes))/b.window.Seconds(), "req/s")
	return nil
}

// latencyTail returns the p-th percentile of xs when the sample count
// supports it (tailPercentile), else the highest supported one, else
// the median.
func latencyTail(xs []float64, p int) float64 {
	if tp := tailPercentile(len(xs)); tp < p {
		p = max(tp, 50)
	}
	return quantile(xs, float64(p)/100)
}
