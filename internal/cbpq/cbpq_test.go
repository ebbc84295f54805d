package cbpq

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pq"
	"repro/internal/sched"
)

// checkSpine walks q's current spine — the caller must hold the queue
// quiescent — and fails t on any broken segment invariant: every
// segment is non-empty and holds at most 2·F chunks, mins ascend within
// and across segments, each top-level min equals its segment's first
// min, and each chunk's min matches its mins entry. It returns the
// segment count.
func checkSpine[T any](t testing.TB, q *Queue[T]) int {
	t.Helper()
	s := q.root.Load()
	if len(s.tops) != len(s.segs) {
		t.Fatalf("spine: %d top-level mins for %d segments", len(s.tops), len(s.segs))
	}
	prev := uint64(0)
	for si, seg := range s.segs {
		if len(seg.live) == 0 || len(seg.live) > 2*segFanout {
			t.Fatalf("spine: segment %d holds %d chunks, want 1..%d", si, len(seg.live), 2*segFanout)
		}
		if len(seg.mins) != len(seg.live) {
			t.Fatalf("spine: segment %d has %d mins for %d chunks", si, len(seg.mins), len(seg.live))
		}
		if s.tops[si] != seg.mins[0] {
			t.Fatalf("spine: top-level min %d of segment %d != its first min %d", s.tops[si], si, seg.mins[0])
		}
		for k, c := range seg.live {
			if c.min != seg.mins[k] {
				t.Fatalf("spine: chunk %d/%d has min %d, its entry says %d", si, k, c.min, seg.mins[k])
			}
			if c.min < prev {
				t.Fatalf("spine: chunk %d/%d min %d below its predecessor's %d", si, k, c.min, prev)
			}
			prev = c.min
		}
	}
	return len(s.segs)
}

// TestSequentialExact drives a single worker through a random push/pop
// mix against a reference model: every pop must return the exact
// minimum of the live set, for both the default and a tiny chunk
// capacity (the latter forces constant splits and rebuilds). The spine
// walker runs after every step; the wide-key case grows the spine past
// three segments, so splits and rebuilds cross segment boundaries.
func TestSequentialExact(t *testing.T) {
	for _, tc := range []struct {
		cfg     Config
		keys    int
		minSegs int
	}{
		{Config{Workers: 1}, 1000, 0},
		{Config{Workers: 1, ChunkCap: 4}, 1000, 0},
		{Config{Workers: 1, ChunkCap: 8}, 1000, 0},
		{Config{Workers: 1, DisableElimination: true}, 1000, 0},
		{Config{Workers: 1, ChunkCap: 8, DisableElimination: true}, 1000, 0},
		{Config{Workers: 1, ChunkCap: 8}, 1 << 20, 3},
	} {
		cfg := tc.cfg
		cap_ := cfg.ChunkCap
		q := New[int](cfg)
		w := q.Worker(0)
		rng := rand.New(rand.NewSource(42))
		var model []uint64
		maxSegs := 0
		for op := 0; op < 20000; op++ {
			maxSegs = max(maxSegs, checkSpine(t, q))
			if len(model) == 0 || rng.Intn(3) != 0 {
				p := uint64(rng.Intn(tc.keys))
				w.Push(p, int(p))
				model = append(model, p)
			} else {
				mi := 0
				for i, p := range model {
					if p < model[mi] {
						mi = i
					}
				}
				want := model[mi]
				model[mi] = model[len(model)-1]
				model = model[:len(model)-1]
				p, v, ok := w.Pop()
				if !ok {
					t.Fatalf("cap=%d op=%d: Pop empty with %d modeled entries", cap_, op, len(model)+1)
				}
				if p != want {
					t.Fatalf("cap=%d op=%d: Pop = %d, want exact min %d", cap_, op, p, want)
				}
				if uint64(v) != p {
					t.Fatalf("cap=%d op=%d: payload %d does not match priority %d", cap_, op, v, p)
				}
			}
		}
		for range model {
			if _, _, ok := w.Pop(); !ok {
				t.Fatalf("cap=%d: queue drained before the model", cap_)
			}
			checkSpine(t, q)
		}
		if _, _, ok := w.Pop(); ok {
			t.Fatalf("cap=%d: queue still non-empty after the model drained", cap_)
		}
		if maxSegs < tc.minSegs {
			t.Fatalf("cap=%d keys=%d: spine peaked at %d segments, want >= %d", cap_, tc.keys, maxSegs, tc.minSegs)
		}
	}
}

// TestBatchExact checks that PushN batches pop back in exact global
// order via PopN, across chunk boundaries and with duplicates, with the
// spine walker run after every batch. The wide-key case spans at least
// three segments.
func TestBatchExact(t *testing.T) {
	for _, tc := range []struct {
		n, keys, minSegs int
	}{
		{5000, 300, 0},
		{12000, 1 << 20, 3},
	} {
		q := New[int](Config{Workers: 1, ChunkCap: 8})
		w := q.Worker(0)
		rng := rand.New(rand.NewSource(7))
		n := tc.n
		ps := make([]uint64, n)
		vs := make([]int, n)
		for i := range ps {
			ps[i] = uint64(rng.Intn(tc.keys))
			vs[i] = i
		}
		w.PushN(ps[:n/2], vs[:n/2])
		checkSpine(t, q)
		w.PushN(ps[n/2:], vs[n/2:])
		if segs := checkSpine(t, q); segs < tc.minSegs {
			t.Fatalf("keys=%d: %d items span %d segments, want >= %d", tc.keys, n, segs, tc.minSegs)
		}

		var got []uint64
		dst := make([]sched.Task[int], 64)
		for {
			k := w.PopN(dst)
			checkSpine(t, q)
			if k == 0 {
				break
			}
			for _, it := range dst[:k] {
				got = append(got, it.P)
			}
		}
		if len(got) != n {
			t.Fatalf("keys=%d: popped %d of %d", tc.keys, len(got), n)
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Fatalf("keys=%d: PopN out of order at %d: %d after %d", tc.keys, i, got[i], got[i-1])
			}
		}
		st := q.Stats()
		if st.Pushes != uint64(n) || st.Pops != uint64(n) {
			t.Fatalf("keys=%d: stats: pushes=%d pops=%d, want %d each", tc.keys, st.Pushes, st.Pops, n)
		}
	}
}

// installSpine replaces q's spine with a hand-built one: a sorted head
// holding head, an empty buf, and one segment per entry of segs, each
// chunk prefilled with its priorities (the first is the chunk's min).
// It lets the segment-boundary tests set up exact shapes that random
// workloads reach only by chance.
func installSpine(q *Queue[uint64], head []uint64, segs [][][]uint64) {
	w := &q.workers[0]
	h := w.getHead()
	for i, p := range head {
		h.items[i].P, h.items[i].V = p, p
	}
	h.n = len(head)
	for _, seg := range segs {
		var live []*chunk[uint64]
		var mins []uint64
		for _, ps := range seg {
			items := make([]pq.Item[uint64], len(ps))
			for i, p := range ps {
				items[i] = pq.Item[uint64]{P: p, V: p}
			}
			live = append(live, w.prefill(ps[0], items))
			mins = append(mins, ps[0])
		}
		w.segs = append(w.segs, &segment[uint64]{live: live, mins: mins})
		w.tops = append(w.tops, mins[0])
	}
	q.root.Store(w.newSpine(h, w.getChunk()))
	w.commitBuilt()
}

// drainExact pops q empty through worker 0, walking the spine after
// every pop, and fails unless the pops return exactly want (ascending).
func drainExact(t *testing.T, q *Queue[uint64], want []uint64) {
	t.Helper()
	w := q.Worker(0)
	for i, p := range want {
		got, v, ok := w.Pop()
		if !ok || got != p || v != p {
			t.Fatalf("pop %d = (%d, %d, %v), want priority %d", i, got, v, ok, p)
		}
		checkSpine(t, q)
	}
	if p, _, ok := w.Pop(); ok {
		t.Fatalf("queue still holds %d after the expected drain", p)
	}
}

// TestRebuildPullInStraddlesSegments: the front segment holds a single
// two-item chunk, so the first rebuild's pull-in (which stops only at
// the head's fill target) consumes that whole segment and continues
// into the next one, leaving a copied remainder as the new front
// segment while the third segment stays shared.
func TestRebuildPullInStraddlesSegments(t *testing.T) {
	q := New[uint64](Config{Workers: 1, ChunkCap: 8})
	var want []uint64
	seg := func(base uint64, chunks, per int) [][]uint64 {
		var out [][]uint64
		for c := 0; c < chunks; c++ {
			var ps []uint64
			for i := 0; i < per; i++ {
				ps = append(ps, base+uint64(c*per+i))
			}
			want = append(want, ps...)
			out = append(out, ps)
		}
		return out
	}
	segs := [][][]uint64{seg(100, 1, 2), seg(200, 5, 3), seg(400, 4, 6)}
	installSpine(q, nil, segs)
	if got := checkSpine(t, q); got != 3 {
		t.Fatalf("installed spine has %d segments, want 3", got)
	}
	third := q.root.Load().segs[2].live
	// One pop drives exactly one rebuild from the empty head.
	if p, _, ok := q.Worker(0).Pop(); !ok || p != want[0] {
		t.Fatalf("first pop = (%d, %v), want %d", p, ok, want[0])
	}
	s := q.root.Load()
	if len(s.segs) != 2 {
		t.Fatalf("after the straddling pull-in: %d segments, want 2", len(s.segs))
	}
	if front := s.segs[0].mins; !slices.Equal(front, []uint64{206, 209, 212}) {
		t.Fatalf("after the straddling pull-in: front segment mins %v, want [206 209 212]", front)
	}
	if &s.segs[1].live[0] != &third[0] {
		t.Fatal("rebuild copied a segment its pull-in never touched")
	}
	checkSpine(t, q)
	drainExact(t, q, want[1:])
}

// TestSplitOverflowsSegment: the middle of three segments is full (2·F
// chunks), so splitting one of its chunks overflows it; the split must
// halve it into two segments and share the outer two untouched.
func TestSplitOverflowsSegment(t *testing.T) {
	q := New[uint64](Config{Workers: 1, ChunkCap: 8})
	var want []uint64
	chunkAt := func(base uint64) []uint64 {
		ps := make([]uint64, 8)
		for i := range ps {
			ps[i] = base + uint64(2*i)
		}
		want = append(want, ps...)
		return ps
	}
	var segs [][][]uint64
	for si, n := range []int{3, 2 * segFanout, 3} {
		var seg [][]uint64
		for c := 0; c < n; c++ {
			seg = append(seg, chunkAt(uint64(si*1e6+c*100)))
		}
		segs = append(segs, seg)
	}
	installSpine(q, nil, segs)
	old := q.root.Load()
	// Full chunk 0 of the middle segment (priorities 1e6, 1e6+2, ...):
	// an odd priority inside its range forces the split.
	p := uint64(1e6 + 1)
	q.Worker(0).Push(p, p)
	want = append(want, p)
	s := q.root.Load()
	if got := checkSpine(t, q); got != 4 {
		t.Fatalf("after the overflowing split: %d segments, want 4", got)
	}
	if n0, n1 := len(s.segs[1].live), len(s.segs[2].live); n0+n1 != 2*segFanout+1 || n0 < segFanout || n1 < segFanout {
		t.Fatalf("overflowed segment halved into %d + %d chunks, want near-equal halves of %d", n0, n1, 2*segFanout+1)
	}
	if &s.segs[0].live[0] != &old.segs[0].live[0] || &s.segs[3].live[0] != &old.segs[2].live[0] {
		t.Fatal("split copied a segment it did not change")
	}
	slices.Sort(want)
	drainExact(t, q, want)
}

// TestRebuildSpillOverflowsSegment: a full head plus a full buf spill
// several chunks into a front segment that already holds 2·F chunks;
// the rebuild must halve the overflowing front segment.
func TestRebuildSpillOverflowsSegment(t *testing.T) {
	q := New[uint64](Config{Workers: 1, ChunkCap: 8})
	w := q.Worker(0)
	var head, want []uint64
	for i := 0; i < q.headCap+q.cfg.ChunkCap; i++ {
		head = append(head, uint64(1000+i))
	}
	want = append(want, head...)
	var seg [][]uint64
	for c := 0; c < 2*segFanout; c++ {
		ps := []uint64{uint64(1e6 + c*10), uint64(1e6 + c*10 + 1)}
		want = append(want, ps...)
		seg = append(seg, ps)
	}
	installSpine(q, head, [][][]uint64{seg})
	// Below-head pushes fill the exchange, then buf; the next one finds
	// both full and drives the combining rebuild.
	for i := 0; i <= len(q.exg)+q.cfg.ChunkCap; i++ {
		p := uint64(i)
		w.Push(p, p)
		want = append(want, p)
	}
	if got := checkSpine(t, q); got != 2 {
		t.Fatalf("after the spilling rebuild: %d segments, want the overflowed front halved into 2", got)
	}
	slices.Sort(want)
	drainExact(t, q, want)
}

// TestEmptyAndEdgeBatches covers the empty queue and the nil-batch
// no-ops.
func TestEmptyAndEdgeBatches(t *testing.T) {
	q := New[string](Config{Workers: 2})
	w := q.Worker(0)
	if _, _, ok := w.Pop(); ok {
		t.Fatal("Pop on empty queue returned ok")
	}
	w.PushN(nil, nil)
	if n := w.PopN(nil); n != 0 {
		t.Fatalf("PopN(nil) = %d", n)
	}
	st := q.Stats()
	if st.Pushes != 0 || st.Pops != 0 {
		t.Fatalf("nil batches disturbed stats: %+v", st)
	}
	w.Push(9, "x")
	if p, v, ok := q.Worker(1).Pop(); !ok || p != 9 || v != "x" {
		t.Fatalf("cross-worker pop = (%d,%q,%v)", p, v, ok)
	}
}

// TestConfigValidate pins the constructor contract.
func TestConfigValidate(t *testing.T) {
	if err := (Config{Workers: 1}).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for _, bad := range []Config{{}, {Workers: -1}, {Workers: 1, ChunkCap: 3}, {Workers: 1, ChunkCap: 1 << 17}} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("Validate(%+v) = nil, want error", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New[int](Config{})
}

// TestConcurrentExactDrain hammers the queue from several goroutines
// with a tiny chunk capacity, then verifies global conservation and
// that a final single-threaded drain comes out sorted.
func TestConcurrentExactDrain(t *testing.T) {
	workers := 4
	perWorker := 3000
	if testing.Short() {
		perWorker = 600
	}
	q := New[uint64](Config{Workers: workers, ChunkCap: 8})
	var popped sync.Map
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := q.Worker(wi)
			rng := rand.New(rand.NewSource(int64(wi)))
			count := 0
			for i := 0; i < perWorker; i++ {
				id := uint64(wi*perWorker + i)
				w.Push(uint64(rng.Intn(500)), id)
				if i%3 == 0 {
					if _, v, ok := w.Pop(); ok {
						if _, dup := popped.LoadOrStore(v, true); dup {
							t.Errorf("duplicate pop of %d", v)
						}
						count++
					}
				}
			}
			_ = count
		}(wi)
	}
	wg.Wait()

	w := q.Worker(0)
	prev := uint64(0)
	for {
		p, v, ok := w.Pop()
		if !ok {
			break
		}
		if p < prev {
			t.Fatalf("final drain out of order: %d after %d", p, prev)
		}
		prev = p
		if _, dup := popped.LoadOrStore(v, true); dup {
			t.Fatalf("duplicate pop of %d", v)
		}
	}
	total := 0
	popped.Range(func(any, any) bool { total++; return true })
	if total != workers*perWorker {
		t.Fatalf("conservation: popped %d unique of %d pushed", total, workers*perWorker)
	}
	if st := q.Stats(); st.Pushes != st.Pops {
		t.Fatalf("stats conservation: pushes=%d pops=%d", st.Pushes, st.Pops)
	}
}

// loPrefill splits the priority space for the exactness runs: prefilled
// items live in [loPrefill, 2*loPrefill), antagonist inserts strictly
// below them so every one lands in the head's range (the buf path) and
// drives a rebuild while the head still holds unclaimed prefilled slots.
const loPrefill = uint64(1) << 20

// popRec is one timestamped pop observation: the shared clock before
// the call, after the return, and the returned priority.
type popRec struct {
	start, end uint64
	p          uint64
}

// exactnessRun empirically checks that concurrent pops are exact (rank
// displacement 0) while rebuilds and eliminations race them. The queue
// is prefilled with priorities >= loPrefill whose pushes complete
// before the concurrent phase; antagonists then push below-head
// priorities — with elimination these land in the exchange array, so
// racing pops must arbitrate takes against head claims, and overflow
// forces combining rebuilds of a partially drained head — and
// interleave pops of their own (the elimination antagonist: a pop
// racing the publish window of a below-head push), while every pop is
// timestamped with a shared atomic clock. Offline it asserts: no pop
// may return a prefilled priority px while a prefilled item with
// priority < px was continuously present across the pop's whole
// interval — that is, an item popped only by an operation that began
// after this pop returned, or never popped at all. Any such pair is a
// linearizability violation (the pop did not return the minimum), and
// it is exactly the observable signature of a freeze/claim race that
// lets a popper take slot i while smaller frozen-but-unclaimed slots
// are republished — or, with elimination, of a head claim or exchange
// take that overlooked a smaller entry resident in an exchange slot.
// The interval analysis covers exchange-slot residency with no extra
// cases: a published exchange entry is linearized queue content, so an
// eliminating take is just a pop with its own interval, and an entry
// parked across another pop's whole interval is exactly the
// "continuously present" witness the suffix-min scan looks for. It
// returns the number of spine segments the prefill spans.
func exactnessRun(t *testing.T, poppers, prefill, antagonists, perAntagonist, chunkCap int, seed int64) int {
	t.Helper()
	q := New[uint64](Config{Workers: poppers + antagonists + 1, ChunkCap: chunkCap})
	w0 := q.Worker(0)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < prefill; i++ {
		w0.Push(loPrefill+uint64(rng.Intn(1<<20)), uint64(i))
	}
	segs := checkSpine(t, q)

	var clock atomic.Uint64
	recs := make([][]popRec, poppers+antagonists)
	attempts := 2 * (prefill + antagonists*perAntagonist) / poppers
	start := make(chan struct{})
	var wg sync.WaitGroup
	for pi := 0; pi < poppers; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			w := q.Worker(1 + pi)
			dst := make([]sched.Task[uint64], 4)
			rs := make([]popRec, 0, attempts)
			<-start
			for a := 0; a < attempts; a++ {
				st := clock.Add(1)
				if a%4 == 3 {
					n := w.PopN(dst)
					en := clock.Add(1)
					for _, it := range dst[:n] {
						rs = append(rs, popRec{st, en, it.P})
					}
					continue
				}
				p, _, ok := w.Pop()
				en := clock.Add(1)
				if ok {
					rs = append(rs, popRec{st, en, p})
				}
			}
			recs[pi] = rs
		}(pi)
	}
	for ai := 0; ai < antagonists; ai++ {
		wg.Add(1)
		go func(ai int) {
			defer wg.Done()
			w := q.Worker(1 + poppers + ai)
			rng := rand.New(rand.NewSource(seed ^ int64(ai+1)*0x9e3779b9))
			rs := make([]popRec, 0, perAntagonist/3+1)
			<-start
			for i := 0; i < perAntagonist; i++ {
				w.Push(uint64(rng.Intn(int(loPrefill))), uint64(1<<40+i))
				if i%3 == 2 {
					// The elimination antagonist: a pop issued right
					// behind a below-head push, racing the exchange
					// publish/take windows. Its observations join the
					// displacement analysis like any popper's.
					st := clock.Add(1)
					p, _, ok := w.Pop()
					en := clock.Add(1)
					if ok {
						rs = append(rs, popRec{st, en, p})
					}
				}
			}
			recs[poppers+ai] = rs
		}(ai)
	}
	close(start)
	wg.Wait()

	// Prefilled items never popped during the phase were continuously
	// present throughout every concurrent pop: give them an infinite
	// pop start so they constrain every pop interval.
	inf := clock.Load() + 1
	type present struct {
		start uint64 // clock at which this item's own pop began
		p     uint64
	}
	var ys []present
	var xs []popRec
	for _, rs := range recs {
		for _, r := range rs {
			if r.p >= loPrefill {
				ys = append(ys, present{r.start, r.p})
				xs = append(xs, r)
			}
		}
	}
	for {
		p, _, ok := w0.Pop()
		if !ok {
			break
		}
		if p >= loPrefill {
			ys = append(ys, present{inf, p})
		}
	}
	slices.SortFunc(ys, func(a, b present) int { return cmp.Compare(a.start, b.start) })
	sufMin := make([]uint64, len(ys)+1)
	sufMin[len(ys)] = ^uint64(0)
	for i := len(ys) - 1; i >= 0; i-- {
		sufMin[i] = min(sufMin[i+1], ys[i].p)
	}
	violations := 0
	for _, x := range xs {
		// First item whose own pop began strictly after x returned.
		idx, _ := slices.BinarySearchFunc(ys, x.end, func(y present, end uint64) int {
			return cmp.Compare(y.start, end)
		})
		for idx < len(ys) && ys[idx].start <= x.end {
			idx++
		}
		if m := sufMin[idx]; m < x.p {
			violations++
			if violations <= 5 {
				t.Errorf("displaced pop: returned %d during [%d,%d] while an item with priority %d was continuously in the queue",
					x.p, x.start, x.end, m)
			}
		}
	}
	if violations > 0 {
		t.Fatalf("%d displaced pops of %d prefilled pops — concurrent exactness (rank bound 0) violated", violations, len(xs))
	}
	checkSpine(t, q)
	return segs
}

// TestConcurrentExactness runs the timestamped displacement check at a
// size the main test job can afford; the stress suite soaks the same
// checker at elevated iterations (see stress_test.go). At ChunkCap 8
// the prefill spans at least three spine segments, so concurrent splits
// and rebuilds race across segment boundaries.
func TestConcurrentExactness(t *testing.T) {
	prefill, per := 6000, 3000
	if testing.Short() {
		prefill, per = 2400, 600
	}
	for _, cap_ := range []int{8, 64} {
		segs := exactnessRun(t, 4, prefill, 2, per, cap_, int64(cap_)*31+1)
		if cap_ == 8 && segs < 3 {
			t.Fatalf("cap=8: prefill of %d spans %d segments, want >= 3", prefill, segs)
		}
	}
}

// TestRetention verifies the queue keeps no references to popped
// payloads: chunks zero claimed slots, and recycled candidates are
// scrubbed (same discipline as the pq/klsm pool retention tests).
func TestRetention(t *testing.T) {
	q := New[*[64]byte](Config{Workers: 1, ChunkCap: 8})
	w := q.Worker(0)
	const n = 60
	released := make(chan int, n)
	for i := 0; i < n; i++ {
		payload := &[64]byte{}
		runtime.AddCleanup(payload, func(i int) { released <- i }, i)
		w.Push(uint64(i%7), payload)
	}
	for i := 0; i < n; i++ {
		if _, _, ok := w.Pop(); !ok {
			t.Fatalf("pop %d failed", i)
		}
	}
	got := 0
	for attempt := 0; attempt < 20 && got < n; attempt++ {
		runtime.GC()
		for {
			select {
			case <-released:
				got++
				continue
			default:
			}
			break
		}
	}
	if got != n {
		t.Fatalf("only %d of %d popped payloads were released — the queue retains them", got, n)
	}
	runtime.KeepAlive(q)
}

// retained is a payload whose release the retention tests observe.
type retained struct {
	id int
	_  [56]byte
}

// TestRetentionAcrossSegments extends TestRetention to the segmented
// spine. Pushes stop right after a split first overflows the single
// segment and halves it, so the back half is untouched when pops then
// consume the front half's chunks: every popped payload must be
// collectable while the rest is still queued — no live segment may keep
// a consumed chunk reachable.
func TestRetentionAcrossSegments(t *testing.T) {
	q := New[*retained](Config{Workers: 1, ChunkCap: 8})
	w := q.Worker(0)
	rng := rand.New(rand.NewSource(3))
	const maxPush = 1 << 14
	released := make(chan int, maxPush)
	pushed := 0
	for ; len(q.root.Load().segs) < 2; pushed++ {
		if pushed == maxPush {
			t.Fatalf("%d pushes never overflowed the first segment", maxPush)
		}
		payload := &retained{id: pushed}
		runtime.AddCleanup(payload, func(i int) { released <- i }, pushed)
		w.Push(uint64(rng.Intn(1<<20)), payload)
	}
	front := 0
	for _, c := range q.root.Load().segs[0].live {
		front += int(c.ctl.Load() & ctlCount)
	}
	popped := make(map[int]bool, front)
	for i := 0; i < front; i++ {
		_, v, ok := w.Pop()
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		popped[v.id] = true
	}
	got := 0
	for attempt := 0; attempt < 20 && got < front; attempt++ {
		runtime.GC()
		for {
			select {
			case id := <-released:
				if !popped[id] {
					t.Fatalf("payload %d released while still queued", id)
				}
				got++
				continue
			default:
			}
			break
		}
	}
	if got != front {
		t.Fatalf("only %d of %d popped payloads were released — a live segment retains consumed chunks", got, front)
	}
	runtime.KeepAlive(q)
}
