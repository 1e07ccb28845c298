package experiments

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"machlock/internal/core/cxlock"
	"machlock/internal/core/splock"
	"machlock/internal/sched"
)

// These tests turn EXPERIMENTS.md's qualitative verdicts into assertions:
// each checks the SHAPE of a result (who wins, what is zero, what
// explodes) using the deterministic metrics the drivers report, so a
// regression in any protocol fails CI rather than silently skewing the
// tables.

// E1: TTAS spinners generate (almost) no interconnect traffic; TAS
// spinners pay roughly one transaction per attempt; with write-through
// caches even a lone TAS spinner pays every time.
func TestClaimE1SpinTraffic(t *testing.T) {
	const iters = 1000
	tas := spinPhase(2, splock.TAS, iters, false)
	ttas := spinPhase(2, splock.TTAS, iters, false)
	if ttas > 4 {
		t.Fatalf("ttas spin traffic = %d, want ~0", ttas)
	}
	if tas < int64(2*iters)-4 {
		t.Fatalf("tas spin traffic = %d, want ~%d", tas, 2*iters)
	}
	wtTas := spinPhase(1, splock.TAS, iters, true)
	if wtTas < iters {
		t.Fatalf("write-through tas = %d, want >= %d", wtTas, iters)
	}
}

// E3: orders of magnitude fewer readers are admitted past a waiting
// writer with the Mach lock than with the reader-preference baseline.
// The absolute count is instrumentation residue (the window between the
// writer announcing itself and the lock registering its request is
// unbounded under preemption), so the SHAPE assertion is the ratio
// measured by the driver itself under identical instrumentation.
func TestClaimE3WriterPriority(t *testing.T) {
	res := runE3(Config{Quick: true})
	rows := res.Tables[0].Rows
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	mach, err1 := strconv.ParseInt(rows[0][3], 10, 64)
	base, err2 := strconv.ParseInt(rows[1][3], 10, 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("unparsable admissions: %q %q", rows[0][3], rows[1][3])
	}
	if base < 1000 {
		t.Skipf("reader flood too thin this run (baseline admitted %d); shape not testable", base)
	}
	if mach*20 > base {
		t.Fatalf("mach admitted %d vs baseline %d: expected >= 20x separation", mach, base)
	}
}

// E4: the upgrade protocol restarts under contention; write+downgrade
// never does (structurally cannot). Each round forces the contention: two
// threads both hold the read lock (a barrier) before either tries
// ReadToWrite, so exactly one upgrade must fail, release its read hold
// and restart.
func TestClaimE4UpgradeRestarts(t *testing.T) {
	const rounds = 50
	l := cxlock.NewWith(cxlock.Options{Sleep: true})
	var restarts atomic.Int64
	for r := 0; r < rounds; r++ {
		var readers sync.WaitGroup
		readers.Add(2)
		var ths []*sched.Thread
		for i := 0; i < 2; i++ {
			ths = append(ths, sched.Go("u", func(self *sched.Thread) {
				l.Read(self)
				readers.Done()
				readers.Wait()
				for l.ReadToWrite(self) {
					restarts.Add(1)
					l.Read(self)
				}
				l.Done(self)
			}))
		}
		for _, th := range ths {
			th.Join()
		}
	}
	if restarts.Load() != rounds {
		t.Fatalf("restarts = %d over %d forced rounds, want exactly one per round", restarts.Load(), rounds)
	}
	if l.Stats().FailedUpgrades != restarts.Load() {
		t.Fatalf("failed upgrades %d != restarts %d", l.Stats().FailedUpgrades, restarts.Load())
	}
}

// E11: the recursive wire deadlocks under memory pressure (no progress
// within the window) and the rewritten wire completes unaided — asserted
// through the driver itself.
func TestClaimE11DeadlockShape(t *testing.T) {
	res := runE11(Config{Quick: true})
	table := res.Tables[0]
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	recursive, rewritten := table.Rows[0], table.Rows[1]
	if recursive[1] != "DEADLOCK detected (no progress)" {
		t.Fatalf("recursive outcome = %q", recursive[1])
	}
	if recursive[2] != "0" {
		t.Fatalf("recursive reclaims-during-stall = %q, want 0", recursive[2])
	}
	if rewritten[1] != "completed unaided" {
		t.Fatalf("rewritten outcome = %q", rewritten[1])
	}
	if rewritten[3] != "0" {
		t.Fatalf("rewritten emergency pages = %q, want 0", rewritten[3])
	}
}

// E9: with exemption the shootdown completes; without it, it times out —
// asserted through the driver's demonstration table.
func TestClaimE9ExemptionShape(t *testing.T) {
	res := runE9(Config{Quick: true})
	dem := res.Tables[1]
	if dem.Rows[0][1] != "completed" {
		t.Fatalf("with exemption: %q", dem.Rows[0][1])
	}
	if dem.Rows[1][1] != "DEADLOCK (timed out)" {
		t.Fatalf("without exemption: %q", dem.Rows[1][1])
	}
}

// E12: the compiled-out lock is at least an order of magnitude cheaper
// than the real one.
func TestClaimE12CompileOut(t *testing.T) {
	const iters = 2_000_000
	var real splock.Lock
	realTime := timeIt(func() {
		for i := 0; i < iters; i++ {
			real.Lock()
			real.Unlock()
		}
	})
	var noop splock.Noop
	noopTime := timeIt(func() {
		for i := 0; i < iters; i++ {
			noop.Lock()
			noop.Unlock()
		}
	})
	if noopTime*5 > realTime {
		t.Fatalf("compile-out advantage too small: real %v vs noop %v", realTime, noopTime)
	}
}

// E14: the arsenal's shape claims, on the deterministic handoff chain
// (no goroutines, so these are exact integers, not statistics):
//
//   - queue and adaptive handoff traffic stays constant as spinners are
//     added, while the TTAS release stampede grows with the spinner
//     count — so at 16 CPUs the queue lock beats TTAS outright;
//   - adaptive waiters actually park, and parked waiters cost nothing
//     extra (its traffic matches the queue's, one wakeup IPI aside);
//   - the cohort lock drags the protected data across cells a fraction
//     as often as FIFO order does (the handoff budget batches a cell's
//     holders together).
func TestClaimE14ArsenalShootout(t *testing.T) {
	const ncpu, cells, rounds = 16, 2, 200
	ttasBus, ttasCross, _ := arsenalHandoffPhase(ncpu, cells, splock.TTAS, rounds)
	queueBus, queueCross, _ := arsenalHandoffPhase(ncpu, cells, splock.Queue, rounds)
	cohortBus, cohortCross, _ := arsenalHandoffPhase(ncpu, cells, splock.Cohort, rounds)
	adaptBus, _, adaptParks := arsenalHandoffPhase(ncpu, cells, splock.Adaptive, rounds)

	if queueBus*2 >= ttasBus {
		t.Fatalf("queue should beat ttas by >2x at %d cpus: queue %d vs ttas %d txns", ncpu, queueBus, ttasBus)
	}
	if adaptBus*2 >= ttasBus {
		t.Fatalf("adaptive should beat ttas by >2x at %d cpus: adaptive %d vs ttas %d txns", ncpu, adaptBus, ttasBus)
	}
	if adaptParks == 0 {
		t.Fatal("adaptive shootout run never parked a waiter")
	}
	if cohortBus >= ttasBus {
		t.Fatalf("cohort should beat ttas at %d cpus: cohort %d vs ttas %d txns", ncpu, cohortBus, ttasBus)
	}
	if cohortCross*2 >= queueCross {
		t.Fatalf("cohort should halve cross-cell transfers vs queue: cohort %d vs queue %d", cohortCross, queueCross)
	}
	if cohortCross*2 >= ttasCross {
		t.Fatalf("cohort should halve cross-cell transfers vs ttas: cohort %d vs ttas %d", cohortCross, ttasCross)
	}

	// The growth shape itself: queue traffic must stay ~flat from 4 to 16
	// CPUs while ttas grows.
	q4, _, _ := arsenalHandoffPhase(4, cells, splock.Queue, rounds)
	t4, _, _ := arsenalHandoffPhase(4, cells, splock.TTAS, rounds)
	if queueBus > q4+q4/4 {
		t.Fatalf("queue handoff traffic grew with spinners: %d at 4 cpus vs %d at 16", q4, queueBus)
	}
	if ttasBus <= t4 {
		t.Fatalf("ttas handoff traffic did not grow with spinners: %d at 4 cpus vs %d at 16", t4, ttasBus)
	}
}
