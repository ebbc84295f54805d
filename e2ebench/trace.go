package main

import (
	"time"

	"repro/internal/sched"
)

// traceEpoch is the origin of every traced timestamp; time.Since reads
// the monotonic clock.
var traceEpoch = time.Now()

func stamp() int64 { return int64(time.Since(traceEpoch)) }

// callKind is what a traced worker's previous call was; it decides
// which layer the gap before the next call is charged to.
type callKind uint8

const (
	callNone     callKind = iota
	callPopFull           // PopN/Pop returned tasks: the caller is processing them
	callPopEmpty          // PopN/Pop came back empty: the caller backs off or polls termination
	callPush              // PushN/Push: the caller resumes its loop
)

// layerTimes is one worker's attribution of its wall time, in
// nanoseconds and call counts. Every nanosecond between the worker's
// first call and its last falls in exactly one of popNs, pushNs,
// workNs and idleNs.
type layerTimes struct {
	popNs, popCalls, popTasks int64 // inside PopN/Pop, all calls
	emptyPops, emptyPopNs     int64 // the empty subset of the pops
	pushNs, pushCalls         int64 // inside PushN/Push
	pushTasks                 int64
	workNs                    int64 // gaps after a non-empty pop or a push: the algorithm's own work
	idleNs                    int64 // gaps after an empty pop: backoff and termination polling
	first, last               int64 // stamps of the first call's start and the last call's end
}

func (l *layerTimes) add(o layerTimes) {
	l.popNs += o.popNs
	l.popCalls += o.popCalls
	l.popTasks += o.popTasks
	l.emptyPops += o.emptyPops
	l.emptyPopNs += o.emptyPopNs
	l.pushNs += o.pushNs
	l.pushCalls += o.pushCalls
	l.pushTasks += o.pushTasks
	l.workNs += o.workNs
	l.idleNs += o.idleNs
}

// tracedSched wraps a scheduler so that every call on its worker
// handles is timed from outside, with no change to the scheduler or its
// caller. Handles are created once and cached, because callers may ask
// for the same worker id more than once (the graph drivers seed through
// Worker(0) and ask for it again in their worker loop).
type tracedSched[T any] struct {
	sched.Scheduler[T]
	workers []*tracedWorker[T]
}

func newTraced[T any](s sched.Scheduler[T]) *tracedSched[T] {
	t := &tracedSched[T]{Scheduler: s, workers: make([]*tracedWorker[T], s.Workers())}
	for i := range t.workers {
		t.workers[i] = &tracedWorker[T]{inner: s.Worker(i)}
	}
	return t
}

func (t *tracedSched[T]) Worker(w int) sched.Worker[T] { return t.workers[w] }

// times returns each worker's attribution. Call after the workers quiesce.
func (t *tracedSched[T]) times() []layerTimes {
	out := make([]layerTimes, len(t.workers))
	for i, w := range t.workers {
		out[i] = w.t
	}
	return out
}

// tracedWorker times one handle. Each handle is owned by one goroutine
// at a time, so its counters need no synchronisation.
type tracedWorker[T any] struct {
	inner sched.Worker[T]
	prev  callKind
	t     layerTimes
	_     [64]byte // keep adjacent workers' counters off one cache line
}

// begin charges the gap since the previous call to the layer that
// previous call hands control to, and returns the call's start stamp.
func (w *tracedWorker[T]) begin() int64 {
	now := stamp()
	switch w.prev {
	case callNone:
		w.t.first = now
	case callPopEmpty:
		w.t.idleNs += now - w.t.last
	default:
		w.t.workNs += now - w.t.last
	}
	return now
}

func (w *tracedWorker[T]) endPop(start int64, n int) {
	end := stamp()
	d := end - start
	w.t.popNs += d
	w.t.popCalls++
	w.t.popTasks += int64(n)
	w.prev = callPopFull
	if n == 0 {
		w.t.emptyPops++
		w.t.emptyPopNs += d
		w.prev = callPopEmpty
	}
	w.t.last = end
}

func (w *tracedWorker[T]) endPush(start int64, n int) {
	end := stamp()
	w.t.pushNs += end - start
	w.t.pushCalls++
	w.t.pushTasks += int64(n)
	w.prev = callPush
	w.t.last = end
}

func (w *tracedWorker[T]) Push(p uint64, v T) {
	s := w.begin()
	w.inner.Push(p, v)
	w.endPush(s, 1)
}

func (w *tracedWorker[T]) Pop() (uint64, T, bool) {
	s := w.begin()
	p, v, ok := w.inner.Pop()
	n := 0
	if ok {
		n = 1
	}
	w.endPop(s, n)
	return p, v, ok
}

func (w *tracedWorker[T]) PushN(ps []uint64, vs []T) {
	s := w.begin()
	w.inner.PushN(ps, vs)
	w.endPush(s, len(ps))
}

func (w *tracedWorker[T]) PopN(dst []sched.Task[T]) int {
	s := w.begin()
	n := w.inner.PopN(dst)
	w.endPop(s, n)
	return n
}
