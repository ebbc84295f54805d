package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/serve"
)

// tally counts the operations a run attempted and the ones whose output
// was wrong. An operation is one SSSP solve or one offered serve request.
type tally struct {
	attempted, failed uint64
}

// solve records one solve and reports whether its distances match the
// sequential reference exactly.
func (t *tally) solve(got, want []uint64) bool {
	t.attempted++
	ok := len(got) == len(want)
	for i := 0; ok && i < len(got); i++ {
		ok = got[i] == want[i]
	}
	if !ok {
		t.failed++
	}
	return ok
}

// serveRun records the offered requests of one serve run and counts as
// failed every request that was never ingested, shed, or lost: the
// ledger must read offered = ingested and ingested = completed + shed,
// with nothing shed. It returns the number of failed requests.
func (t *tally) serveRun(offered uint64, st *serve.Stats) uint64 {
	t.attempted += offered
	var bad uint64
	if st.Ingested < offered {
		bad += offered - st.Ingested // never ingested
	}
	done := st.Completed + st.Shed
	switch {
	case done < st.Ingested:
		bad += st.Ingested - done // lost inside the service
	case done > st.Ingested:
		bad += done - st.Ingested // completed more than was ingested
	}
	bad += st.Shed
	bad = min(bad, offered)
	t.failed += bad
	return bad
}

// failedFrac is failed over attempted operations.
func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// failure is the record printed when a watchdog fires.
type failure struct {
	Failure string  `json:"failure"`
	Op      string  `json:"op"`
	LimitS  float64 `json:"limit_s"`
}

// dieOnHang prints a failure record and ends the process with a
// non-zero exit: a solve or serve run that hangs (a termination bug in
// a scheduler, say) cannot be cancelled from outside, and stalling the
// pipeline would hide it.
func dieOnHang(op string, limit time.Duration) {
	b, _ := json.Marshal(failure{Failure: "watchdog", Op: op, LimitS: limit.Seconds()})
	fmt.Println(string(b))
	os.Exit(3)
}

// guard runs fn and calls fire(op, limit) if fn is still running after
// limit.
func guard(op string, limit time.Duration, fire func(string, time.Duration), fn func()) {
	t := time.AfterFunc(limit, func() { fire(op, limit) })
	defer t.Stop()
	fn()
}
