package main

import (
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/algos"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/zoo"
)

// solveLineup is the set of schedulers timed on every graph: the
// paper's scheduler (smq), its classic-MQ and OBIM baselines, the
// strongest non-MQ baseline (klsm) and the lock-free vs. coarse-lock
// exact pair (cbpq, coarse).
var solveLineup = []string{"smq", "mq", "klsm", "obim", "cbpq", "coarse"}

// perRound is how many solves a scheduler gets in each round, 1 unless
// listed. The listed ones vary about twice as much from solve to solve
// as the others: obim's work increase on the RMAT graph ranges 18–29,
// smq's on the road grids 1.2–1.8. They get twice the samples.
var perRound = map[string]int{"obim": 2, "smq": 2}

// solveLimit is the watchdog budget of one solve. The slowest solve in
// the lineup (obim on the RMAT graph) takes about 1.7 s on a 2-core
// host.
const solveLimit = 30 * time.Second

// graphInput is a workload's graph with its sequential reference.
type graphInput struct {
	g        *graph.CSR
	src      uint32
	want     []uint64
	seqTasks uint64
	genS     float64 // graph generation, seconds
	seqS     float64 // algos.DijkstraSeq, seconds
	heapMB   float64 // heap at the end of set-up, MB
	csrBytes float64 // computed size of the graph's CSR arrays
}

// setUp generates the graph and its reference distances. The collector
// is paused for the duration, so the heap at the end holds everything
// set-up allocated: that peak does not depend on when a collection
// would have started, and only grows when set-up allocates or keeps
// more.
func setUp(gen func(seed uint64) (*graph.CSR, uint32), seed uint64) graphInput {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t0 := time.Now()
	g, src := gen(seed)
	t1 := time.Now()
	want, seq := algos.DijkstraSeq(g, src)
	t2 := time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return graphInput{g: g, src: src, want: want, seqTasks: seq.Tasks,
		genS: t1.Sub(t0).Seconds(), seqS: t2.Sub(t1).Seconds(), heapMB: float64(ms.HeapAlloc) / (1 << 20),
		csrBytes: float64(8*len(g.Offsets) + 4*len(g.Targets) + 4*len(g.Weights) + 16*len(g.Coords))}
}

// solveSample is one timed algos.SSSP call.
type solveSample struct {
	wallS   float64
	res     algos.Result
	workInc float64 // tasks over the sequential reference's tasks
	// Set on traced solves only.
	layers                       layerTimes // summed over workers
	mallocs, allocBytes, pauseNs uint64
}

// solveRuns holds every timed solve of one scheduler.
type solveRuns struct {
	plain, traced []solveSample
}

// solveRound solves once with every scheduler of the lineup (perRound
// times for the listed ones) and records the solves in runs; a nil runs
// makes it a warm-up round. With traced set, every plain solve is followed by a
// traced one of the same scheduler.
func solveRound(runs map[string]*solveRuns, in *graphInput, workers int, seed uint64, round int, traced bool, tl *tally) {
	for i, name := range solveLineup {
		for rep := range max(1, perRound[name]) {
			sseed := seed<<16 | uint64(round)<<8 | uint64(rep)<<4 | uint64(i)
			s := solveOnce(in, name, workers, sseed, false, tl)
			if runs == nil {
				break
			}
			if runs[name] == nil {
				runs[name] = &solveRuns{}
			}
			runs[name].plain = append(runs[name].plain, s)
			if traced {
				runs[name].traced = append(runs[name].traced, solveOnce(in, name, workers, sseed, true, tl))
			}
		}
	}
}

// solveOnce builds a fresh scheduler, solves under the watchdog and
// validates the distances against the sequential reference.
func solveOnce(in *graphInput, name string, workers int, seed uint64, traced bool, tl *tally) solveSample {
	spec, _ := zoo.Lookup[uint32](name)
	var s sched.Scheduler[uint32] = spec.Make(workers, seed)
	var tr *tracedSched[uint32]
	if traced {
		tr = newTraced(s)
		s = tr
	}
	runtime.GC()
	var before, after runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	var out solveSample
	var dist []uint64
	guard("solve "+name, solveLimit, dieOnHang, func() {
		t0 := time.Now()
		dist, out.res = algos.SSSP(in.g, in.src, s)
		out.wallS = time.Since(t0).Seconds()
	})
	if traced {
		runtime.ReadMemStats(&after)
		out.mallocs = after.Mallocs - before.Mallocs
		out.allocBytes = after.TotalAlloc - before.TotalAlloc
		out.pauseNs = after.PauseTotalNs - before.PauseTotalNs
		for _, l := range tr.times() {
			out.layers.add(l)
		}
	}
	out.workInc = out.res.WorkIncrease(in.seqTasks)
	tl.solve(dist, in.want)
	return out
}
