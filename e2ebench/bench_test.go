package main

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/graph"
	"repro/internal/perfbench"
	"repro/internal/serve"
	"repro/internal/zoo"
)

// attributionSlack is the share of worker wall time the tracer may
// leave unattributed: goroutine start before a worker's first call and
// the exit after its last one.
const attributionSlack = 0.10

func TestTracedSSSPMatchesReferenceAndAttributesWallTime(t *testing.T) {
	g := graph.GenerateRoadGrid(128, 256, 7)
	want, _ := algos.DijkstraSeq(g, 0)
	for _, name := range solveLineup {
		t.Run(name, func(t *testing.T) {
			spec, _ := zoo.Lookup[uint32](name)
			tr := newTraced(spec.Make(2, 3))
			got, res := algos.SSSP(g, 0, tr)
			var tl tally
			if !tl.solve(got, want) {
				t.Fatal("traced SSSP distances differ from DijkstraSeq")
			}
			var sum layerTimes
			var spans int64
			for _, l := range tr.times() {
				span := l.last - l.first
				if got := l.popNs + l.pushNs + l.workNs + l.idleNs; got != span {
					t.Errorf("worker attributes %d ns of a %d ns span", got, span)
				}
				sum.add(l)
				spans += span
			}
			if uint64(sum.popTasks) != res.Tasks {
				t.Errorf("tracer counted %d popped tasks, Result.Tasks = %d", sum.popTasks, res.Tasks)
			}
			wall := int64(len(tr.workers)) * res.Duration.Nanoseconds()
			if d := math.Abs(float64(spans-wall)) / float64(wall); d > attributionSlack {
				t.Errorf("attributed %d ns of %d ns worker wall time (off by %.1f%%, limit %.0f%%)",
					spans, wall, 100*d, 100*attributionSlack)
			}
		})
	}
}

func TestTracerReturnsOneHandlePerWorker(t *testing.T) {
	spec, _ := zoo.Lookup[uint32]("smq")
	tr := newTraced(spec.Make(2, 1))
	if tr.Worker(0) != tr.Worker(0) || tr.Worker(0) == tr.Worker(1) {
		t.Fatal("Worker must return one cached handle per worker id")
	}
}

func TestValidationCountsPerturbedDistances(t *testing.T) {
	want := []uint64{0, 3, 5, algos.Unreachable}
	var tl tally
	if !tl.solve(append([]uint64(nil), want...), want) {
		t.Fatal("identical distances counted as failed")
	}
	bad := append([]uint64(nil), want...)
	bad[2]++
	if tl.solve(bad, want) {
		t.Fatal("perturbed distance vector passed validation")
	}
	if tl.solve(want[:3], want) {
		t.Fatal("truncated distance vector passed validation")
	}
	if tl.attempted != 3 || tl.failed != 2 || tl.failedFrac() != 2.0/3 {
		t.Fatalf("tally = %+v, failedFrac %v; want 2 of 3 failed", tl, tl.failedFrac())
	}
}

func TestValidationCountsUnbalancedServeLedger(t *testing.T) {
	cases := []struct {
		name    string
		offered uint64
		st      serve.Stats
		failed  uint64
	}{
		{"balanced", 100, serve.Stats{Ingested: 100, Completed: 100}, 0},
		{"never ingested", 100, serve.Stats{Ingested: 90, Completed: 90}, 10},
		{"lost", 100, serve.Stats{Ingested: 100, Completed: 97}, 3},
		{"shed", 100, serve.Stats{Ingested: 100, Completed: 96, Shed: 4}, 4},
		{"completed twice", 100, serve.Stats{Ingested: 100, Completed: 101}, 1},
	}
	for _, c := range cases {
		var tl tally
		if got := tl.serveRun(c.offered, &c.st); got != c.failed || tl.failed != c.failed || tl.attempted != c.offered {
			t.Errorf("%s: failed %d (tally %+v), want %d of %d", c.name, got, tl, c.failed, c.offered)
		}
	}
}

func TestServeRunBalancesLedger(t *testing.T) {
	var tl tally
	o := serveOnce(100_000, 100*time.Millisecond, 2, 1, true, &tl)
	if o.failed != 0 || tl.failed != 0 || o.st.Completed != o.offered {
		t.Fatalf("serve run: offered %d, stats %+v, failed %d", o.offered, o.st, o.failed)
	}
	var popped int64
	for _, l := range o.layers {
		popped += l.popTasks
	}
	if uint64(popped) != o.st.Completed {
		t.Fatalf("tracer counted %d popped requests, service completed %d", popped, o.st.Completed)
	}
}

func TestWatchdogFiresOnlyOnOverrun(t *testing.T) {
	fired := make(chan string, 2)
	fire := func(op string, _ time.Duration) { fired <- op }
	guard("quick", time.Second, fire, func() {})
	guard("hang", 10*time.Millisecond, fire, func() {
		if op := <-fired; op != "hang" {
			t.Errorf("watchdog fired for %q, want hang", op)
		}
	})
	select {
	case op := <-fired:
		t.Fatalf("watchdog fired again, for %q", op)
	default:
	}
}

func TestRunRefusesBadArguments(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		trace   int
	}{
		{"road-sssp", runtime.NumCPU() + 1, 0}, // more workers than cores
		{"road-sssp", 1, 0},                    // serving needs an ingest and a pool worker
		{"road-sssp", 2, 2},
		{"no-such-workload", 2, 0},
	}
	for _, c := range cases {
		if err := run(c.name, 1, 1, c.trace, c.workers); err == nil {
			t.Errorf("run(%q, workers %d, trace %d) accepted", c.name, c.workers, c.trace)
		}
	}
}

func TestQuantileInterpStaysInsideBucket(t *testing.T) {
	var h perfbench.Histogram
	for v := uint64(1000); v < 3000; v++ {
		h.Record(v)
	}
	q := quantileInterp(&h, 0.5)
	if q < 1900 || q > 2100 {
		t.Fatalf("interpolated median %v, want about 2000", q)
	}
	if low := float64(h.Quantile(0.5)); q < low || q > low*(1+1.0/16) {
		t.Fatalf("interpolated median %v outside its bucket [%v, %v)", q, low, low*(1+1.0/16))
	}
}

func TestQuantileInterpolatesOrderStatistics(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.1, 1.4}, {0.5, 3}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}
