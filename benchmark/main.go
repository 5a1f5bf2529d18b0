// Command benchmark measures the billing fleet end to end. In one
// process it starts the deployed fleet shape on loopback listeners, a
// router (internal/route) in front of two backends (internal/serve),
// drives one of four seeded workloads through it, checks every response
// byte for byte against an in-process oracle, and prints the end-to-end
// metrics. With -trace it instead replays the workload through each
// layer in turn and prints where a request's time goes. See README.md.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload bill-open --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh -seed 1                      # all four workloads
//	bash benchmark/run.sh -trace -trace-out spans.jsonl
//	bash benchmark/run.sh -runs 5 -out a.json
//	bash benchmark/run.sh -compare a.json b.json
//
// A single-workload run ends with a one-line JSON result. The command
// exits non-zero when any response differs from the oracle.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: bill-open, batch-inline, batch-profile or optimize (default all four)")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 25, "seconds each run measures")
	trace := fs.Bool("trace", false, "replay the workload through each layer and report per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace, write the spans to this file, one JSON object per line")
	runs := fs.Int("runs", 0, "run each workload this many times, with seeds seed, seed+1, ..., and print medians and quartiles")
	out := fs.String("out", "", "with -runs, write every run's metrics to this result file")
	cmp := fs.String("compare", "", "compare this result file with the one named by the argument: -compare a.json b.json")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	// Before Go 1.25 GOMAXPROCS ignores a container's CPU quota; the
	// benchmark runs on the CPUs it may use, as nproc counts them.
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *cmp != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files: -compare a.json b.json")
			return 2
		}
		a, err := readResultFile(*cmp)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		b, err := readResultFile(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if n := compare(stdout, a, b); n > 0 {
			fmt.Fprintf(stdout, "%d unresolved\n", n)
			return 1
		}
		return 0
	}

	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		selected = []*workload{w}
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace, conns: runtime.NumCPU(), out: stdout, log: stderr}

	if *runs > 0 {
		return runMany(selected, cfg, *runs, *out, stdout, stderr)
	}
	status := 0
	for _, w := range selected {
		c := cfg
		if c.traceOut = *traceOut; c.traceOut != "" && len(selected) > 1 {
			c.traceOut += "." + w.name
		}
		fmt.Fprintf(stdout, "== %s, seed %d, %g s\n", w.name, c.seed, c.seconds)
		res, err := runWorkload(w, c)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		printMetrics(stdout, res)
		if res.Failed > 0 {
			status = 1
		}
		if len(selected) == 1 {
			line, err := resultLine(res)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			fmt.Fprintln(stdout, string(line))
		}
	}
	return status
}

// runMany runs every selected workload n times, seeds cfg.seed onward,
// prints each (workload, metric)'s median and quartiles, and writes the
// runs to path when it is set.
func runMany(selected []*workload, cfg runConfig, n int, path string, stdout, stderr io.Writer) int {
	rf := &resultFile{Stamp: newStamp()}
	cfg.out = io.Discard
	status := 0
	for i := 0; i < n; i++ {
		for _, w := range selected {
			c := cfg
			c.seed += int64(i)
			res, err := runWorkload(w, c)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			fmt.Fprintf(stderr, "run %d/%d %s seed %d: %d attempted, %d failed\n", i+1, n, w.name, c.seed, res.Attempted, res.Failed)
			if res.Failed > 0 {
				status = 1
			}
			rf.Runs = append(rf.Runs, *res)
		}
	}
	fmt.Fprintf(stdout, "%+v\n", rf.Stamp)
	summarize(stdout, rf)
	if path != "" {
		if err := writeResultFile(path, rf); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return status
}

// normalizeArgs rewrites "-trace 0" and "-trace 1", with one dash or
// two, as "-trace=0" and "-trace=1": the flag package takes a boolean
// flag's value only in the "=" form.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}
