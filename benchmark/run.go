package main

// One run: build a workload's inputs and oracle, set the fleet up, then
// either measure it end to end or replay it traced.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

type runConfig struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	// conns caps the benchmark's client connections per host and its
	// concurrent clients: one per CPU.
	conns int
	// out receives the human-readable report, log the diagnostics.
	out, log io.Writer
}

// runResult is one run's outcome, as result files store it.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// checker compares outputs with the oracle, counts mismatches and
// reports the first few.
type checker struct {
	log    io.Writer
	failed atomic.Int64
}

func (c *checker) check(what string, status int, got, want []byte, err error) bool {
	if err == nil && status == http.StatusOK && bytes.Equal(got, want) {
		return true
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	c.fail(what, fmt.Sprintf("status %d, err %v, %d bytes where %d were expected, first difference at byte %d: %q",
		status, err, len(got), len(want), i, got[i:min(len(got), i+80)]))
	return false
}

func (c *checker) fail(what, detail string) {
	if c.failed.Add(1) <= 3 {
		fmt.Fprintf(c.log, "mismatch in %s: %s\n", what, detail)
	}
}

// setupRepeats is how many times an untraced run sets the fleet up; it
// reports the median, as one set-up is short and noisy.
const setupRepeats = 5

func runWorkload(w *workload, cfg runConfig) (*runResult, error) {
	in, err := newInputs(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	o, err := newOracle(in)
	if err != nil {
		return nil, err
	}
	ck := &checker{log: cfg.log}
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var f *fleet
	var setups []float64
	for i := 0; i < repeats; i++ {
		if f != nil {
			f.close()
		}
		// Start from a collected heap, so that the oracle's or the last
		// fleet's garbage does not land a collection in the timed set-up.
		runtime.GC()
		t0 := time.Now()
		if f, err = startFleet(cfg.conns); err != nil {
			return nil, err
		}
		if err := warmUp(f, in, o, ck); err != nil {
			f.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.close()

	res := &runResult{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Metrics: make(map[string]float64)}
	if cfg.trace {
		if err := traced(f, in, o, ck, cfg, res); err != nil {
			return nil, err
		}
	} else {
		sort.Float64s(setups)
		res.Metrics["setup_s"] = percentile(setups, 50)
		measure(f, in, o, ck, cfg, res)
	}
	scrape, err := f.scrape()
	if err != nil {
		return nil, err
	}
	for k, v := range scraped(scrape) {
		res.Metrics[k] = v
	}
	res.Failed = int(ck.failed.Load())
	res.Metrics["fail_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	return res, nil
}

// warmUp sends one request per distinct spec through the router, which
// compiles every engine on the backend that owns it.
func warmUp(f *fleet, in *inputs, o *oracle, ck *checker) error {
	for _, d := range in.warmup() {
		status, got, err := f.post(f.url+in.w.path, in.body(d))
		if !ck.check("warm-up", status, got, o.expect(d), err) {
			return fmt.Errorf("%s: warm-up request failed", in.w.name)
		}
	}
	return nil
}

// measure drives the workload untraced and records the end-to-end
// metrics.
func measure(f *fleet, in *inputs, o *oracle, ck *checker, cfg runConfig, res *runResult) {
	w := in.w
	send := func(d descriptor) bool {
		status, got, err := f.post(f.url+w.path, in.body(d))
		return ck.check("client.request", status, got, o.expect(d), err)
	}
	st := in.stream()
	m := res.Metrics
	before := readRuntime()
	start := time.Now()
	var all, reported []sample
	if w.clients == 0 {
		stepSeconds := cfg.seconds / float64(len(ladderFractions))
		m["max_rate_rps"] = 0
		fmt.Fprintf(cfg.out, "%-6s %9s %7s %7s %9s %9s %13s %13s %s\n",
			"step", "rate_rps", "sent", "failed", "p50_ms", "p99_ms", "lag_first_ms", "lag_last_ms", "pass")
		for i, frac := range ladderFractions {
			rate := frac * billOpenKnee
			n := max(1, int(rate*stepSeconds))
			ds := st.take(n)
			s := openLoop(wallClock{}, time.Now(), time.Duration(float64(time.Second)/rate), n, cfg.conns,
				func(j int) bool { return send(ds[j]) })
			r := summarizeStep(rate, s)
			fmt.Fprintf(cfg.out, "%5.0f%% %9.0f %7d %7d %9.3f %9.3f %13.3f %13.3f %v\n", 100*frac, rate, r.sent,
				r.failed, ms(r.p50), ms(r.p99), ms(r.lagFirst), ms(r.lagLast), r.pass)
			if r.pass {
				m["max_rate_rps"] = rate
			}
			if i == reportedStep {
				reported = s
				lag := durations(s, func(x sample) time.Duration { return x.lag })
				m["loadgen.lag_p99_ms"] = ms(percentile(lag, 99))
			}
			all = append(all, s...)
		}
	} else {
		until := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
		all = closedLoop(min(w.clients, cfg.conns), until, func() bool { return send(st.next()) })
		reported = all
	}
	elapsed := time.Since(start).Seconds()
	after := readRuntime()

	ok := 0
	for _, s := range all {
		if s.ok {
			ok++
		}
	}
	res.Attempted = len(all)
	lat := durations(reported, func(x sample) time.Duration { return x.lat })
	m["latency_p50_ms"] = ms(percentile(lat, 50))
	m["latency_p90_ms"] = ms(percentile(lat, 90))
	m["latency_p99_ms"] = ms(percentile(lat, 99))
	m["latency_samples"] = float64(len(lat))
	m["goodput_rps"] = float64(ok) / elapsed
	if w.batch {
		m["bills_per_s"] = float64(ok*batchLoads) / elapsed
	}
	m["cpu_ms_per_op"] = 1e3 * ratio(after.cpu-before.cpu, float64(ok))
	m["alloc_kb_per_op"] = ratio(after.alloc-before.alloc, float64(ok)) / 1e3
	m["runtime.gc_cpu_share"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	// The live heap counts the fleet's and the benchmark's own data: the
	// inputs and the oracle are kept alive so that their part is the
	// same at every commit, and in-flight hedges are let finish. Two
	// collections: the first moves sync.Pool contents to the pools'
	// victim caches, the second frees them.
	f.settle()
	runtime.GC()
	runtime.GC()
	m["heap_retained_mb"] = readRuntime().live / 1e6
	runtime.KeepAlive(in)
	runtime.KeepAlive(o)
}

type runtimeStats struct {
	alloc, live     float64 // bytes
	gcCPU, totalCPU float64 // CPU seconds, as the Go runtime accounts them
	// cpu is the CPU time the process used, from the kernel: time the
	// machine took the CPU away for other work is not in it.
	cpu float64 // seconds
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return runtimeStats{
		alloc:    float64(s[0].Value.Uint64()),
		live:     float64(s[1].Value.Uint64()),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
	}
}

func writeSpans(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err = tr.write(bw); err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
