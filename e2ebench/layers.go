package main

// Per-layer metrics of a traced run. Every per-solve quantity is the
// median over the traced solves of one scheduler, summed over its
// workers; every serve quantity is the median over the fixed-rate runs.

// statCounters lists the sched.Stats counters each scheduler actually
// maintains; the others are zero by construction and not reported.
var statCounters = []struct {
	metric string
	unit   string
	scheds []string
	value  func(s *solveSample) float64
}{
	{"sched.steals", "count", []string{"smq", "obim"}, func(s *solveSample) float64 { return float64(s.res.Sched.Steals) }},
	{"sched.steal_fail_frac", "1", []string{"smq"}, func(s *solveSample) float64 {
		return ratio(float64(s.res.Sched.StealFails), float64(s.res.Sched.Steals+s.res.Sched.StealFails))
	}},
	{"sched.lock_fails", "count", []string{"mq", "klsm", "cbpq"}, func(s *solveSample) float64 { return float64(s.res.Sched.LockFails) }},
	{"sched.eliminations", "count", []string{"cbpq"}, func(s *solveSample) float64 { return float64(s.res.Sched.Eliminations) }},
	{"sched.combines", "count", []string{"cbpq"}, func(s *solveSample) float64 { return float64(s.res.Sched.Combines) }},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOf is the median of f over samples.
func medianOf[S any](samples []S, f func(*S) float64) float64 {
	xs := make([]float64, len(samples))
	for i := range samples {
		xs[i] = f(&samples[i])
	}
	return median(xs)
}

func layerMetrics(m map[string]metric, ins []graphInput, solves map[string]*solveRuns, serves []serveOutcome) {
	m["graph.gen_s"] = metric{medianOf(ins, func(in *graphInput) float64 { return in.genS }), "s"}
	m["graph.csr_bytes"] = metric{medianOf(ins, func(in *graphInput) float64 { return in.csrBytes }), "B"}
	m["algos.seq_s"] = metric{medianOf(ins, func(in *graphInput) float64 { return in.seqS }), "s"}
	for _, name := range solveLineup {
		r := solves[name]
		t := r.traced
		per := func(metricName, unit string, f func(*solveSample) float64) {
			m[metricName+"."+name] = metric{medianOf(t, f), unit}
		}
		per("sched.pop_ns", "ns", func(s *solveSample) float64 { return float64(s.layers.popNs) })
		per("sched.pop_calls", "count", func(s *solveSample) float64 { return float64(s.layers.popCalls) })
		per("sched.tasks_per_pop", "count", func(s *solveSample) float64 {
			return ratio(float64(s.layers.popTasks), float64(s.layers.popCalls-s.layers.emptyPops))
		})
		per("sched.push_ns", "ns", func(s *solveSample) float64 { return float64(s.layers.pushNs) })
		per("sched.push_calls", "count", func(s *solveSample) float64 { return float64(s.layers.pushCalls) })
		per("sched.tasks_per_push", "count", func(s *solveSample) float64 {
			return ratio(float64(s.layers.pushTasks), float64(s.layers.pushCalls))
		})
		per("sched.empty_pops", "count", func(s *solveSample) float64 { return float64(s.layers.emptyPops) })
		per("sched.empty_pop_ns", "ns", func(s *solveSample) float64 { return float64(s.layers.emptyPopNs) })
		per("algos.work_ns", "ns", func(s *solveSample) float64 { return float64(s.layers.workNs) })
		per("algos.idle_ns", "ns", func(s *solveSample) float64 { return float64(s.layers.idleNs) })
		per("algos.tasks", "count", func(s *solveSample) float64 { return float64(s.res.Tasks) })
		per("algos.wasted_frac", "1", func(s *solveSample) float64 {
			return ratio(float64(s.res.Wasted), float64(s.res.Tasks))
		})
		per("algos.work_increase", "1", func(s *solveSample) float64 { return s.workInc })
		per("go.mallocs", "count", func(s *solveSample) float64 { return float64(s.mallocs) })
		per("go.alloc_bytes", "B", func(s *solveSample) float64 { return float64(s.allocBytes) })
		per("go.gc_pause_ms", "ms", func(s *solveSample) float64 { return float64(s.pauseNs) / 1e6 })
		wall := func(s *solveSample) float64 { return s.wallS }
		m["trace.overhead."+name] = metric{ratio(medianOf(t, wall), medianOf(r.plain, wall)) - 1, "1"}
		for _, c := range statCounters {
			for _, s := range c.scheds {
				if s == name {
					per(c.metric, c.unit, c.value)
				}
			}
		}
	}

	serveMed := func(metricName, unit string, f func(*serveOutcome) float64) {
		m[metricName] = metric{medianOf(serves, f), unit}
	}
	serveMed("serve.samples", "count", func(o *serveOutcome) float64 { return float64(o.st.Completed) })
	serveMed("serve.gen_lag_max_ms", "ms", func(o *serveOutcome) float64 { return float64(o.lagMax) / 1e6 })
	serveMed("serve.stalls", "count", func(o *serveOutcome) float64 { return float64(o.st.Stalls) })
	serveMed("serve.stall_ms", "ms", func(o *serveOutcome) float64 { return float64(o.st.StallDur) / 1e6 })
	serveMed("serve.parks", "count", func(o *serveOutcome) float64 { return float64(o.st.Parks) })
	serveMed("serve.unparks", "count", func(o *serveOutcome) float64 { return float64(o.st.Unparks) })
	serveMed("serve.mean_active_workers", "count", func(o *serveOutcome) float64 { return o.st.MeanActiveWorkers })
	// Worker 0 is the service's hybrid ingest worker; the rest are the pool.
	ingest := func(o *serveOutcome) layerTimes { return o.layers[0] }
	pool := func(o *serveOutcome) layerTimes {
		var l layerTimes
		for _, w := range o.layers[1:] {
			l.add(w)
		}
		return l
	}
	serveMed("serve.ingest.push_ns", "ns", func(o *serveOutcome) float64 { return float64(ingest(o).pushNs) })
	serveMed("serve.ingest.pop_ns", "ns", func(o *serveOutcome) float64 { return float64(ingest(o).popNs) })
	serveMed("serve.ingest.tasks_per_push", "count", func(o *serveOutcome) float64 {
		l := ingest(o)
		return ratio(float64(l.pushTasks), float64(l.pushCalls))
	})
	serveMed("serve.pool.pop_ns", "ns", func(o *serveOutcome) float64 { return float64(pool(o).popNs) })
	serveMed("serve.pool.empty_pop_ns", "ns", func(o *serveOutcome) float64 { return float64(pool(o).emptyPopNs) })
	serveMed("serve.pool.idle_ns", "ns", func(o *serveOutcome) float64 { return float64(pool(o).idleNs) })
	serveMed("serve.pool.tasks_per_pop", "count", func(o *serveOutcome) float64 {
		l := pool(o)
		return ratio(float64(l.popTasks), float64(l.popCalls-l.emptyPops))
	})
}
