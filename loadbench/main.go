// Command loadbench is the repository's end-to-end benchmark. It boots
// the real entangled daemon (server.Server) in process on a loopback
// port with `entangled -cache DIR` defaults and a fresh on-disk
// verdict cache, drives it with a seeded open-loop generator, checks
// every answer against a known answer, and prints every metric by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// With --trace 0 it holds the end-to-end metrics; with --trace 1 a
// separate traced run adds the per-layer metrics and writes a Chrome
// trace of its spans under .bench_out/. See README.md.
//
//	bash loadbench/run.sh --workload cold-check --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupRepeats is how many times a --trace 0 run sets up from scratch;
// setup_s is the median, and the last set-up daemon serves the window.
const setupRepeats = 3

// outDir holds the run's cache directories (removed at exit) and the
// traced run's output files.
const outDir = ".bench_out"

type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

func main() {
	name := flag.String("workload", "", "cold-check, warm-check or recheck-edit")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same requests")
	seconds := flag.Int("seconds", 15, "length of the open-loop window in seconds")
	trace := flag.Int("trace", 0, "1 adds the traced run and reports per-layer metrics")
	rate := flag.Float64("rate", 0, "override the workload's arrival rate per second (capacity probes; 0 = the recorded rate)")
	flag.Parse()
	w, err := workloadByName(*name)
	if *rate > 0 {
		w.rate = *rate
	}
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	out := map[string]any{}
	for _, m := range res.metrics {
		note := ""
		if m.note != "" {
			note = "  (" + m.note + ")"
		}
		fmt.Printf("%-32s %14.6g %-8s%s\n", m.name, m.value, m.unit, note)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// session is one set-up daemon with its inputs.
type session struct {
	in     *inputs
	d      *daemon
	c      *client
	dir    string
	tr     *tracer
	errors []string // wrong set-up and warm-up answers
}

func (s *session) close() error {
	s.c.close()
	err := s.d.stop()
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}

// setUp builds the inputs, boots a daemon on a fresh cache directory,
// and sends the set-up requests, checking each as a first check of an
// unseen pair. warm-check keeps each answer as its pair's cold answer.
func setUp(w workload, seed int64, window time.Duration, traced bool, k int) (*session, error) {
	in, err := makeInputs(w, seed, window, traced)
	if err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("cache-%d-%d", os.Getpid(), k)))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	s := &session{in: in, dir: dir}
	if traced {
		s.tr = newTracer()
	}
	if s.d, err = startDaemon(dir, s.tr); err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	s.c = newClient(s.d.url, conns())
	cold, _ := workloadByName("cold-check")
	outs := judge(drive(s.c, in.setup, nil, conns()), func(r *request, rep *reply) error {
		if err := verify(cold, r, rep); err != nil {
			return err
		}
		r.cold = rep.check
		return nil
	})
	_, s.errors = failures(outs)
	return s, nil
}

// conns is the generator's connection count: one per CPU.
func conns() int { return runtime.NumCPU() }

func run(w workload, seed int64, window time.Duration, traced bool) (res *result, err error) {
	fmt.Println(hostLine())
	fmt.Printf("workload: %s seed=%d window=%s rate=%g/s connections=%d traced=%t\n", w.name, seed, window, w.rate, conns(), traced)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var s *session
	var setupTimes []float64
	for k := 0; k < repeats; k++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if s, err = setUp(w, seed, window, traced, k); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer func() {
		if cerr := s.close(); err == nil && cerr != nil {
			res, err = nil, fmt.Errorf("stopping the daemon: %w", cerr)
		}
	}()
	// The untimed warm-up, checked like the set-up.
	cold, _ := workloadByName("cold-check")
	_, warmupErrs := failures(judge(drive(s.c, s.in.warmup, nil, conns()), func(r *request, rep *reply) error { return verify(cold, r, rep) }))
	s.errors = append(s.errors, warmupErrs...)
	res = &result{correct: len(s.errors) == 0}
	for _, e := range s.errors {
		fmt.Fprintln(os.Stderr, "set-up or warm-up answer wrong:", e)
	}

	// The timed window.
	before, err := s.c.stats()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	outs := drive(s.c, s.in.window, s.in.dues, conns())
	elapsed := time.Since(t0)
	cpuEnd := cpuTime()
	judge(outs, func(r *request, rep *reply) error { return verify(w, r, rep) })
	after, err := s.c.stats()
	if err != nil {
		return nil, err
	}
	selfErrs := selfCheck(w, outs, before, after)
	selfErrs = append(selfErrs, validateFamilies(outs, seed)...)
	res.attempted = len(outs)
	nFailed, msgs := failures(outs)
	res.failed = nFailed
	for _, m := range msgs {
		fmt.Fprintln(os.Stderr, "failed request:", m)
	}
	for _, e := range selfErrs {
		fmt.Fprintln(os.Stderr, "self-check:", e)
	}
	if nFailed > 0 || len(selfErrs) > 0 {
		res.correct = false
	}
	fmt.Printf("window: %d requests in %.2fs (%.1f/s), %d failed, %d self-check errors\n",
		len(outs), elapsed.Seconds(), float64(len(outs))/elapsed.Seconds(), nFailed, len(selfErrs))

	if !traced {
		res.metrics, err = endToEnd(outs, cpuEnd, w.slice, setupTimes)
		return res, err
	}
	tres, err := tracedRun(s.tr, s.c, w, s.in.traced)
	if err != nil {
		return nil, err
	}
	tFailed, tMsgs := failures(tres.outs)
	for _, m := range tMsgs {
		fmt.Fprintln(os.Stderr, "failed traced request:", m)
	}
	res.attempted += len(tres.outs)
	res.failed += tFailed
	if tFailed > 0 {
		res.correct = false
	}
	res.metrics, err = perLayer(w, seed, outs, before, after, tres)
	return res, err
}

// endToEnd computes the --trace 0 metrics. The window is cut into
// slices of sliceLen consecutive requests (the last slice takes the
// remainder); the median latency and the CPU per request are each the
// median of their per-slice values, so a few seconds in which the
// shared host runs slow, or a warm-up transient, move one slice, not
// the result. The p95 is taken over the whole window: a slice holds too
// few samples beyond its own p95. A failed request counts as missing
// every latency limit: it enters the percentiles at the client's
// timeout. cpuEnd is the process's CPU time when the last answer
// arrived.
func endToEnd(outs []outcome, cpuEnd time.Duration, sliceLen int, setupTimes []float64) ([]metric, error) {
	lat := make([]float64, len(outs))
	ok := 0
	for i, o := range outs {
		if o.err != nil {
			lat[i] = ms(requestTimeout + time.Minute)
			continue
		}
		ok++
		lat[i] = ms(o.latency)
	}
	var p50s, cpus []float64
	bounds := sliceBounds(len(outs), sliceLen)
	for k := 0; k+1 < len(bounds); k++ {
		lo, hi := bounds[k], bounds[k+1]
		end := cpuEnd
		if hi < len(outs) {
			end = outs[hi].cpu
		}
		p50s = append(p50s, quantile(lat[lo:hi], 0.5))
		cpus = append(cpus, ms(end-outs[lo].cpu)/float64(hi-lo))
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	fmt.Printf("peak RSS %.1f MiB (VmHWM; not gated, the traced run reports it as harness.peak_rss_mb)\n", rss)
	retained := retainedHeapMiB()
	fmt.Print("latency deciles ms:")
	for q := 0.1; q < 0.95; q += 0.1 {
		fmt.Printf(" %.1f", quantile(lat, q))
	}
	fmt.Printf("\nwhole window: p50 %.2f ms, p95 %.2f ms, CPU %.2f ms/req\n",
		quantile(lat, 0.5), quantile(lat, 0.95), ms(cpuEnd-outs[0].cpu)/float64(len(outs)))
	fmt.Printf("per slice: p50 %s ms; CPU %s ms/req\n", fmtAll(p50s), fmtAll(cpus))
	n := fmt.Sprintf("n=%d, median of %d slices", len(outs), len(p50s))
	return []metric{
		{"latency_p50_ms", median(p50s), "ms", n},
		{"latency_p95_ms", quantile(lat, 0.95), "ms", fmt.Sprintf("n=%d, whole window", len(outs))},
		{"cpu_ms_per_req", median(cpus), "ms", n},
		{"success_ratio", float64(ok) / float64(len(outs)), "ratio", fmt.Sprintf("error_ratio=%g, n=%d", 1-float64(ok)/float64(len(outs)), len(outs))},
		{"retained_heap_mb", retained, "MiB", "live heap after a forced GC at the end of the window"},
		{"setup_s", median(setupTimes), "s", fmt.Sprintf("median of %d set-ups", len(setupTimes))},
	}, nil
}
