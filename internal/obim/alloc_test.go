//go:build !race

// testing.AllocsPerRun under the race detector measures the
// instrumentation's allocations, not the scheduler's; CI runs these
// through a dedicated non-race step.

package obim

import (
	"testing"

	"repro/internal/xrand"
)

// TestSteadyStateAllocFree asserts the zero-alloc steady state of OBIM
// and PMOD: after a warm walk, pop→push pairs must make 0 allocs/op.
// Each push lands in a random bucket, so it publishes the previous push
// chunk and opens a new one — the path that allocated a chunk per bucket
// change before chunks were recycled. AllocsPerRun truncates the mean,
// so the few bags created for buckets the walk had not yet seen do not
// count.
func TestSteadyStateAllocFree(t *testing.T) {
	for name, cfg := range map[string]Config{
		"obim": {Workers: 1},
		"pmod": {Workers: 1, Adaptive: true},
	} {
		t.Run(name, func(t *testing.T) {
			s := New[int](cfg)
			w := s.Worker(0)
			rng := xrand.New(42)
			for i := 0; i < 4096; i++ {
				w.Push(uint64(rng.Intn(1<<20)), i)
			}
			for i := 0; i < 2048; i++ {
				w.Pop()
			}
			allocs := testing.AllocsPerRun(2000, func() {
				_, v, ok := w.Pop()
				if !ok {
					v = 0
				}
				w.Push(uint64(rng.Intn(1<<20)), v)
			})
			if allocs != 0 {
				t.Fatalf("steady-state pop+push allocates %.3f allocs/op, want 0", allocs)
			}
		})
	}
}
