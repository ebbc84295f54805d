// Command e2ebench is the repository's end-to-end benchmark: parallel
// SSSP through the scheduler zoo on a road grid and on a power-law RMAT
// graph, and an open-loop run of the serving front-end, all at 2
// workers in one process.
//
//	go run . --workload road-sssp --seed 1 --seconds 25 --trace 0
//
// It drives the program only through the public functions of
// internal/graph, internal/algos, internal/zoo and internal/serve.
// Every solve is checked against algos.DijkstraSeq and every serve run
// against its ledger. The last line of standard output is one JSON
// object: with --trace 0 it carries the end-to-end metrics; with
// --trace 1 the per-layer metrics of a run whose schedulers are wrapped
// in a timing tracer (trace.go).
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
)

// workload is one input set. Every workload runs both phases — SSSP
// solves over the lineup on its graph, and fixed-rate serve runs plus
// the capacity ladder — so each reports every metric; solveShare splits
// --seconds between the phases.
type workload struct {
	name       string
	graph      func(seed uint64) (*graph.CSR, uint32)
	solveShare float64
}

var workloads = []workload{
	// Long-diameter, degree-4 road grid: scheduler pops and pushes take
	// most of worker time and work increase depends on the scheduler.
	{"road-sssp", roadGrid(512, 1024), 0.8},
	// Skewed out-degrees and a 4M-edge working set: relax work and the
	// large PushN batches hubs emit dominate.
	{"rmat-sssp", func(seed uint64) (*graph.CSR, uint32) {
		g := graph.GenerateRMAT(18, 16, graph.DefaultRMATParams(), seed)
		return g, g.MaxOutDegreeVertex()
	}, 0.8},
	// External ingestion, admission and the elastic pool; the solves
	// run on a small grid.
	{"serve-open", roadGrid(256, 512), 0.4},
}

// roadGrid returns a generator for a rows×cols road grid solved from
// its corner vertex, the source farthest from most of the grid.
func roadGrid(rows, cols int) func(uint64) (*graph.CSR, uint32) {
	return func(seed uint64) (*graph.CSR, uint32) { return graph.GenerateRoadGrid(rows, cols, seed), 0 }
}

// graphsPerRun is how many graphs a run generates, from seeds derived
// from --seed; setup_s is the median of their set-ups. Solve times move
// with the graph: on five RMAT graphs obim's median solve ranged
// 1.14–1.68 s. A run's median averages the solve-to-solve spread over
// all its solves but the graph-to-graph spread over its graphs only, so
// more graphs steady it more than more solves per graph.
const graphsPerRun = 6

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: road-sssp, rmat-sssp or serve-open")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	workers := flag.Int("workers", 2, "scheduler workers")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
}

func run(name string, seed uint64, seconds, trace, workers int) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	switch {
	case wl == nil:
		return fmt.Errorf("unknown workload %q", name)
	case seconds < 1:
		return fmt.Errorf("--seconds %d, need >= 1", seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("--trace %d, need 0 or 1", trace)
	case workers < 2 || workers > runtime.NumCPU():
		// A concurrency claim holds only up to the cores the host has.
		return fmt.Errorf("--workers %d outside [2, nproc=%d]", workers, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	emit(map[string]any{"host": hostFingerprint(), "workload": name, "seed": seed, "workers": workers, "trace": trace})

	var tl tally
	budget := time.Duration(seconds) * time.Second
	traced := trace == 1

	// Each set-up builds another graph of the same family and gets an
	// equal share of the budget, so one seed's graph does not decide a
	// run's figures alone; only one graph is alive at a time. The
	// budget goes to rounds: one solve per scheduler, then fixed-rate
	// serve runs until serve time is (1-solveShare)/solveShare of the
	// solve time so far, then one capacity probe outside the budget.
	// Interleaving spreads the host's slow spells over every figure
	// alike.
	var ins []graphInput
	solves := map[string]*solveRuns{}
	var serves []serveOutcome
	var solveT, serveT time.Duration
	lad := newLadder(workers, seed)
	serveRatio := (1 - wl.solveShare) / wl.solveShare
	round := 0
	for k := uint64(0); k < graphsPerRun; k++ {
		runtime.GC()
		in := setUp(wl.graph, seed*graphsPerRun+k)
		if k == 0 {
			solveRound(nil, &in, workers, seed, round, false, &tl) // warm-up, not recorded
			round++
		}
		start := time.Now()
		for n := 1; ; n++ {
			t0 := time.Now()
			solveRound(solves, &in, workers, seed, round, traced, &tl)
			round++
			solveT += time.Since(t0)
			for serveT < time.Duration(float64(solveT)*serveRatio) {
				t1 := time.Now()
				serves = append(serves, serveOnce(serveRate, serveRunD, workers, seed<<20|uint64(len(serves)), traced, &tl))
				serveT += time.Since(t1)
			}
			// One capacity probe per round, outside the budget; the
			// rest follow the rounds.
			if !traced && !lad.done() {
				t2 := time.Now()
				lad.step(&tl)
				start = start.Add(time.Since(t2))
			}
			// Stop when another round of average length would overrun.
			elapsed := time.Since(start)
			if elapsed+elapsed/time.Duration(n) > budget/graphsPerRun {
				break
			}
		}
		in.g, in.want = nil, nil
		ins = append(ins, in)
	}

	for !traced && !lad.done() {
		lad.step(&tl)
	}

	res := result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: map[string]metric{}}
	m := res.Metrics
	var p99s []float64
	var samples uint64
	var lagMax time.Duration
	for _, o := range serves {
		p99s = append(p99s, o.p99ms)
		samples += o.st.Completed
		lagMax = max(lagMax, o.lagMax)
	}
	if traced {
		layerMetrics(m, ins, solves, serves)
		m["mem.run_peak_mb"] = metric{peakRSSMB(), "MB"}
	} else {
		m["setup_s"] = metric{medianOf(ins, func(in *graphInput) float64 { return in.genS + in.seqS }), "s"}
		for _, s := range solveLineup {
			m["solve_s."+s] = metric{medianOf(solves[s].plain, func(s *solveSample) float64 { return s.wallS }), "s"}
		}
		m["serve_p99_ms"] = metric{quantile(p99s, serveP99Quantile), "ms"}
		m["serve_max_rate"] = metric{lad.rate(), "1/s"}
		m["ok_frac"] = metric{1 - tl.failedFrac(), "1"}
		m["mem_peak_mb"] = metric{slices.MaxFunc(ins, func(a, b graphInput) int { return cmp.Compare(a.heapMB, b.heapMB) }).heapMB, "MB"}
	}
	sort.Float64s(p99s)
	emit(map[string]any{"serve": map[string]any{
		"rate": serveRate, "run_ms": serveRunD.Milliseconds(), "runs": len(serves), "samples": samples,
		"p99_ms_min_q10_median_max": []float64{p99s[0], quantile(p99s, serveP99Quantile), median(p99s), p99s[len(p99s)-1]},
		"gen_lag_max_ms":            float64(lagMax) / 1e6,
		"ladder_p99_limit_ms":       p99Limit.Milliseconds(),
	}})
	emit(res)
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed validation", tl.failed, tl.attempted)
	}
	return nil
}

// emit prints v as one JSON line on standard output.
func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs, interpolated linearly between the
// order statistics around it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// hostFingerprint identifies the machine a result belongs to.
func hostFingerprint() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpu, "os": runtime.GOOS, "arch": runtime.GOARCH,
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, or 0
// where /proc is missing.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
