package cbpq

import (
	"fmt"
	"testing"

	"repro/internal/benchutil"
	"repro/internal/sched"
	"repro/internal/xrand"
)

func BenchmarkCBPQ_Throughput(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchutil.Throughput(b, New[int](Config{Workers: workers}), 1<<12)
		})
	}
}

// BenchmarkCBPQ_Batch runs PopN→PushN pairs: one index-word CAS claims
// the pop run, one count-word CAS per touched chunk publishes the push
// batch. Reports ns per batch pair.
func BenchmarkCBPQ_Batch(b *testing.B) {
	const batch = 8
	q := New[int](Config{Workers: 1})
	w := q.Worker(0)
	rng := xrand.New(1)
	for i := 0; i < 1<<12; i++ {
		w.Push(uint64(rng.Intn(1_000_000)), i)
	}
	dst := make([]sched.Task[int], batch)
	ps := make([]uint64, batch)
	vs := make([]int, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := w.PopN(dst)
		for j := 0; j < batch; j++ {
			base := uint64(rng.Intn(1_000_000))
			if j < n {
				base = dst[j].P + uint64(rng.Intn(64))
			}
			ps[j], vs[j] = base, j
		}
		w.PushN(ps, vs)
	}
}

// BenchmarkCBPQ_Pop measures the hot pop path alone (one claiming CAS
// on the packed index word, rebuild amortized over ChunkCap pops),
// refilling outside the timer whenever the queue drains.
func BenchmarkCBPQ_Pop(b *testing.B) {
	q := New[int](Config{Workers: 1})
	w := q.Worker(0)
	rng := xrand.New(1)
	refill := func() {
		b.StopTimer()
		for i := 0; i < 1<<14; i++ {
			w.Push(uint64(rng.Intn(1_000_000)), i)
		}
		b.StartTimer()
	}
	refill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := w.Pop(); !ok {
			refill()
		}
	}
}

// BenchmarkCBPQ_Hold runs the decremental hold pattern — pop the
// minimum, push it back slightly above the old head — the workload the
// elimination + combining layer exists for: immediately-minimal pushes
// meet pops in exchange slots, and the rest park (exchange or buf)
// until a blocked pop absorbs the whole pending set in one deferred
// rebuild. The noelim variant routes everything through the combining
// buf alone. Reports ns per pop+push pair.
func BenchmarkCBPQ_Hold(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"elim", Config{Workers: 1}},
		{"noelim", Config{Workers: 1, DisableElimination: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			q := New[int](tc.cfg)
			w := q.Worker(0)
			rng := xrand.New(1)
			for i := 0; i < 1<<12; i++ {
				w.Push(1<<20+uint64(rng.Intn(1_000_000)), i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, v, ok := w.Pop()
				if !ok {
					b.Fatal("queue drained")
				}
				w.Push(p+uint64(rng.Intn(64)), v)
			}
		})
	}
}

// BenchmarkCBPQ_WideBatch is the deep-spine facet (SSSP hub expansions
// on power-law graphs): a hub-sized PushN of uniform keys into a queue
// holding 256k items — thousands of interior chunks — then a PopN drain
// of the same count. Splits and rebuilds copy one spine segment plus
// the top-level arrays, so the per-op cost must not grow with depth.
// Reports ns and bytes per batch pair.
func BenchmarkCBPQ_WideBatch(b *testing.B) {
	const hub, resident = 4096, 1 << 18
	q := New[int](Config{Workers: 1})
	w := q.Worker(0)
	rng := xrand.New(1)
	ps := make([]uint64, hub)
	vs := make([]int, hub)
	fill := func() {
		for i := range ps {
			ps[i], vs[i] = uint64(rng.Intn(1<<30)), i
		}
	}
	for n := 0; n < resident; n += hub {
		fill()
		w.PushN(ps, vs)
	}
	dst := make([]sched.Task[int], hub)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fill()
		b.StartTimer()
		w.PushN(ps, vs)
		for got := 0; got < hub; {
			got += w.PopN(dst[got:])
		}
	}
}
