package main

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"repro/internal/perfbench"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/zoo"
)

// The serve phase drives internal/serve open-loop with smq, the
// smqserve default. Arrivals are smooth at a fixed rate, well below the
// 2–2.5M req/s the service sustains at 2 workers; sojourn time runs
// from each request's scheduled arrival, so generator lag and admission
// stalls count against the service.
const (
	serveSched = "smq"
	serveRate  = 500_000               // offered requests per second
	serveRunD  = 50 * time.Millisecond // one fixed-rate run
	genTick    = 50 * time.Microsecond // generator sleep between send bursts
	// serveP99Quantile picks serve_p99_ms from the fixed-rate runs'
	// p99s. Host interference (the VM losing its CPU for a few ms, late
	// wake-ups from sleep) only ever adds delay, and in noisy stretches
	// it reaches most runs, so the median of the runs follows the host;
	// the 10th percentile stays with the undisturbed runs. A change that
	// slows every run still moves it.
	serveP99Quantile = 0.1
	// p99Limit is the sojourn-p99 limit of the capacity ladder. It sits
	// above the 1–4 ms floor that the backoff sleep tier and the
	// generator's wake-ups give at any rate, and above the 5–15 ms that
	// host hiccups add to some short runs well below capacity; past
	// capacity the p99 climbs to 20–150 ms within a few rungs.
	p99Limit = 20 * time.Millisecond
	// Request costs in spin units (about 1 ns each) follow a bounded
	// Pareto: mostly cheap, with a heavy tail.
	costMin, costMax, costAlpha = 50.0, 2000.0, 1.1
)

// The capacity ladder: rung i offers ladderBase·2^(i/ladderPerOctave)
// requests per second. Each probe is ladderReps short runs and passes
// when most of them meet p99Limit with no stall, nothing shed and a
// drain shorter than the limit (no growing backlog).
const (
	ladderBase      = 500_000.0
	ladderPerOctave = 24
	ladderRungs     = 3*ladderPerOctave + 1 // up to 4M req/s
	ladderReps      = 3
	ladderRunD      = 250 * time.Millisecond
)

func ladderRate(i int) float64 { return ladderBase * math.Exp2(float64(i)/ladderPerOctave) }

// serveOutcome is one serve run.
type serveOutcome struct {
	offered uint64
	st      *serve.Stats
	p99ms   float64
	lagMax  time.Duration // how late the generator ran, worst case
	drain   time.Duration // close of the stream to quiescence
	failed  uint64
	layers  []layerTimes // traced runs only, per worker
}

// meets reports whether the run met the ladder's limit.
func (o *serveOutcome) meets() bool {
	return o.failed == 0 && o.st.Stalls == 0 && o.p99ms <= float64(p99Limit)/1e6 && o.drain <= p99Limit
}

// serveOnce runs one service for about d at the given rate.
func serveOnce(rate float64, d time.Duration, workers int, seed uint64, traced bool, tl *tally) serveOutcome {
	spec, _ := zoo.Lookup[serve.Request](serveSched)
	var s sched.Scheduler[serve.Request] = spec.Make(workers, seed)
	var tr *tracedSched[serve.Request]
	if traced {
		tr = newTraced(s)
		s = tr
	}
	svc, err := serve.New(s, serve.Config{Workers: workers})
	if err != nil {
		panic(err) // the configuration is fixed above
	}
	// No collection may start inside the run: with GOMAXPROCS 2 its
	// mark worker would take one of the two processors.
	runtime.GC()
	out := serveOutcome{offered: uint64(rate * d.Seconds())}
	// Costs are drawn before the clock starts, so the generator spends
	// its time on pacing and sending only.
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	lowA := math.Pow(costMin/costMax, costAlpha)
	costs := make([]uint32, out.offered)
	for i := range costs {
		u := rng.Float64()
		costs[i] = uint32(costMin / math.Pow(1-u*(1-lowA), 1/costAlpha))
	}
	guard("serve", d+solveLimit, dieOnHang, func() {
		svc.Start()
		epoch := svc.Epoch()
		in := svc.In()
		base := time.Since(epoch)
		interval := float64(time.Second) / rate
		for i := uint64(0); i < out.offered; {
			now := time.Since(epoch)
			for ; i < out.offered; i++ {
				due := base + time.Duration(float64(i)*interval)
				if due > now {
					break
				}
				out.lagMax = max(out.lagMax, now-due)
				in <- serve.Request{Cost: costs[i], Enq: due.Nanoseconds()}
			}
			if i < out.offered {
				time.Sleep(genTick)
			}
		}
		closed := time.Now()
		close(in)
		out.st = svc.Wait()
		out.drain = time.Since(closed)
	})
	var lat perfbench.Histogram // sojourn times, ns
	for i := range out.st.PerTenant {
		lat.Merge(&out.st.PerTenant[i].Latency)
	}
	out.p99ms = quantileInterp(&lat, 0.99) / 1e6
	out.failed = tl.serveRun(out.offered, out.st)
	if traced {
		out.layers = tr.times()
	}
	return out
}

// ladder is the capacity search: a binary search over the rungs whose
// probes the caller spreads over the run, so that one slow spell of the
// host cannot decide it. A rung fails only when two of its probes fail;
// one pass is enough.
type ladder struct {
	lo, hi  int          // lo passed (or -1, below the ladder); hi failed (or ladderRungs)
	failed  map[int]bool // rungs that failed one probe
	runs    int
	workers int
	seed    uint64
}

func newLadder(workers int, seed uint64) *ladder {
	return &ladder{lo: -1, hi: ladderRungs, failed: map[int]bool{}, workers: workers, seed: seed}
}

func (l *ladder) done() bool { return l.hi-l.lo <= 1 }

// step probes the middle rung of the open interval with ladderReps runs.
func (l *ladder) step(tl *tally) {
	mid := (l.lo + l.hi) / 2
	pass := 0
	var p99s []float64
	for range ladderReps {
		l.runs++
		o := serveOnce(ladderRate(mid), ladderRunD, l.workers, l.seed<<16|1<<12|uint64(l.runs), false, tl)
		if o.meets() {
			pass++
		}
		p99s = append(p99s, o.p99ms)
	}
	fmt.Fprintf(os.Stderr, "ladder: %.0f req/s p99 %.2f ms, %d of %d runs met the limit\n", ladderRate(mid), p99s, pass, ladderReps)
	switch {
	case 2*pass > ladderReps:
		l.lo = mid
	case l.failed[mid]:
		l.hi = mid
	default:
		l.failed[mid] = true
	}
}

// rate is the highest passing rung, or 0 when even the lowest failed.
func (l *ladder) rate() float64 {
	if l.lo < 0 {
		return 0
	}
	return ladderRate(l.lo)
}

// quantileInterp is Histogram.Quantile with linear interpolation inside
// the bucket that holds the quantile. Quantile alone reports a bucket's
// lower bound, so it moves in steps of 1/16 of an octave; the cumulative
// counts around the bucket are recovered by bisecting on rank.
func quantileInterp(h *perfbench.Histogram, q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	at := func(rank uint64) uint64 { return h.Quantile((float64(rank) + 0.5) / float64(n)) }
	rank := max(uint64(q*float64(n)), 1)
	low := at(rank)
	// firstAbove returns the smallest rank in [1, n] whose value exceeds v, or n+1.
	firstAbove := func(v uint64) uint64 {
		a, b := uint64(1), n+1
		for a < b {
			m := a + (b-a)/2
			if at(m) > v {
				b = m
			} else {
				a = m + 1
			}
		}
		return a
	}
	first := uint64(1)
	if low > 0 {
		first = firstAbove(low - 1)
	}
	end := firstAbove(low)
	// The histogram keeps exact unit buckets below 16 and 16 linear
	// sub-buckets per octave above.
	width := 1.0
	if low >= 16 {
		width = float64(uint64(1) << (bits.Len64(low) - 1 - 4))
	}
	frac := (float64(rank-first) + 0.5) / float64(end-first)
	return float64(low) + width*frac
}
