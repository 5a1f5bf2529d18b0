package main

// Result files (-runs N -out FILE) and their comparison (-compare).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// stamp records what a result file was measured with.
type stamp struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
}

type resultFile struct {
	Stamp stamp       `json:"stamp"`
	Runs  []runResult `json:"runs"`
}

func newStamp() stamp {
	s := stamp{Commit: "unknown", Go: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, kv := range bi.Settings {
			switch {
			case kv.Key == "vcs.revision":
				s.Commit = kv.Value
			case kv.Key == "vcs.modified" && kv.Value == "true":
				dirty = "-dirty"
			}
		}
		s.Commit += dirty
	}
	return s
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func writeResultFile(path string, rf *resultFile) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// group is one (workload, traced) set of runs.
type group struct {
	workload string
	trace    bool
}

func (g group) String() string {
	if g.trace {
		return g.workload + " (traced)"
	}
	return g.workload
}

// values collects each group's per-metric values across runs.
func values(rf *resultFile) map[group]map[string][]float64 {
	out := make(map[group]map[string][]float64)
	for _, r := range rf.Runs {
		g := group{r.Workload, r.Trace}
		if out[g] == nil {
			out[g] = make(map[string][]float64)
		}
		for k, v := range r.Metrics {
			out[g][k] = append(out[g][k], v)
		}
	}
	return out
}

// groups lists the groups in workload order.
func groups(vals map[group]map[string][]float64) []group {
	var out []group
	for _, w := range workloads {
		for _, tr := range []bool{false, true} {
			if _, ok := vals[group{w.name, tr}]; ok {
				out = append(out, group{w.name, tr})
			}
		}
	}
	return out
}

// quartiles returns the first quartile, the median and the third
// quartile of vs the way Python's statistics.quantiles(vs, n=4) does
// (its default, exclusive method).
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := make([]float64, 3)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// summarize prints each group's per-metric median and quartiles.
func summarize(w io.Writer, rf *resultFile) {
	vals := values(rf)
	for _, g := range groups(vals) {
		fmt.Fprintf(w, "== %s\n", g)
		for _, name := range sortedNames(vals[g]) {
			q1, med, q3 := quartiles(vals[g][name])
			fmt.Fprintf(w, "  %-40s %12.6g  [%.6g, %.6g]  %s\n", name, med, q1, q3, unitOf(name))
		}
	}
}

// compare prints, for every (workload, metric) both files measured and
// the benchmark defines, each side's median and quartiles and B's
// change against A, worse as positive. A bounded metric agrees when the
// change stays within its bound either way, and is unresolved
// otherwise; an absolute one agrees when the medians are equal.
// compare returns the number of unresolved pairs.
func compare(w io.Writer, a, b *resultFile) int {
	fmt.Fprintf(w, "A: %+v\nB: %+v\n", a.Stamp, b.Stamp)
	va, vb := values(a), values(b)
	unresolved := 0
	for _, g := range groups(va) {
		if vb[g] == nil {
			continue
		}
		fmt.Fprintf(w, "== %s\n%-28s %24s %24s %9s %6s  %s\n", g, "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "bound", "verdict")
		for _, d := range allDefs() {
			xa, xb := va[g][d.Name], vb[g][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(xa)
			b1, bm, b3 := quartiles(xb)
			worse := ratio(bm-am, math.Abs(am))
			if d.Better == "higher" {
				worse = -worse
			}
			verdict, bound := "-", "-"
			switch {
			case d.Absolute:
				verdict, bound = "agreed", "0"
				if am != bm {
					verdict = "unresolved"
				}
			case d.Bound > 0:
				verdict, bound = "agreed", fmt.Sprintf("%.2f", d.Bound)
				if math.Abs(worse) > d.Bound {
					verdict = "unresolved"
				}
			}
			if verdict == "unresolved" {
				unresolved++
			}
			fmt.Fprintf(w, "%-28s %24s %24s %+8.1f%% %6s  %s\n", d.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", am, a1, a3), fmt.Sprintf("%.4g [%.4g, %.4g]", bm, b1, b3),
				100*worse, bound, verdict)
		}
	}
	return unresolved
}
