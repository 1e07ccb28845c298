package splock

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"machlock/internal/trace"
)

// arsenalPolicies are the non-default algorithms under test; the default
// TASTTAS path has its own suite in splock_test.go.
var arsenalPolicies = []Policy{TAS, TTAS, Queue, Cohort, Adaptive}

// TestAlgoMutualExclusionStress hammers each algorithm from 2×GOMAXPROCS
// goroutines; run under -race this is the data-race certification for the
// arsenal's handoff edges (grant stores / acquire loads must carry the
// happens-before for the protected counter).
func TestAlgoMutualExclusionStress(t *testing.T) {
	for _, p := range arsenalPolicies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			l := NewWith(Opts{
				Algorithm:  p,
				SpinBudget: 8, // force the park path under contention
				Domains:    2,
			})
			workers := 2 * runtime.GOMAXPROCS(0)
			const perWorker = 2000
			n := 0
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						l.Lock()
						n++
						l.Unlock()
					}
				}()
			}
			wg.Wait()
			if n != workers*perWorker {
				t.Fatalf("lost updates: n=%d, want %d", n, workers*perWorker)
			}
			if l.Locked() {
				t.Fatal("lock still reads held after all holders released")
			}
		})
	}
}

// TestAlgoTryLock: TryLock on every algorithm must fail against a holder,
// succeed on a free lock, and compose with Unlock.
func TestAlgoTryLock(t *testing.T) {
	for _, p := range arsenalPolicies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			l := NewWith(Opts{Algorithm: p, Domains: 2})
			if !l.TryLock() {
				t.Fatal("TryLock failed on a free lock")
			}
			if l.TryLock() {
				t.Fatal("TryLock succeeded against a holder")
			}
			done := make(chan bool)
			go func() { done <- l.TryLock() }()
			if <-done {
				t.Fatal("TryLock from another goroutine succeeded against a holder")
			}
			l.Unlock()
			if !l.TryLock() {
				t.Fatal("TryLock failed after release")
			}
			l.Unlock()
		})
	}
}

// TestAlgoTryLockUnderChurn interleaves TryLock with blocking Lock on
// each algorithm: a trylock must never corrupt the queue/global state the
// blocking path depends on.
func TestAlgoTryLockUnderChurn(t *testing.T) {
	for _, p := range []Policy{Queue, Cohort, Adaptive} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			l := NewWith(Opts{Algorithm: p, SpinBudget: 8, Domains: 2})
			n := 0
			var tried, took int
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 1000; i++ {
						l.Lock()
						n++
						l.Unlock()
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					tried++
					if l.TryLock() {
						took++
						n++
						l.Unlock()
					}
				}
			}()
			wg.Wait()
			if n != 4000+took {
				t.Fatalf("lost updates under trylock churn: n=%d, want %d", n, 4000+took)
			}
			_ = tried
		})
	}
}

// TestAlgoStatsAccounting: the arsenal counters must move — handoffs for
// the queue family, parks/unparks for adaptive, local handoffs for the
// cohort under a handoff-friendly schedule.
func TestAlgoStatsAccounting(t *testing.T) {
	t.Run("queue-handoffs", func(t *testing.T) {
		l := NewWith(Opts{Algorithm: Queue})
		contendSlow(l, 4, 50) // holds long enough that waiters queue up
		if l.AlgoStats().Handoffs == 0 {
			t.Fatal("contended queue lock recorded no handoffs")
		}
	})
	t.Run("adaptive-parks", func(t *testing.T) {
		l := NewWith(Opts{Algorithm: Adaptive, SpinBudget: 1})
		contendSlow(l, 4, 50)
		s := l.AlgoStats()
		if s.Parks == 0 {
			t.Fatal("adaptive lock with budget 1 never parked under contention")
		}
		if s.Unparks == 0 {
			t.Fatal("parked waiters were never counted as unparked")
		}
	})
	t.Run("cohort-local", func(t *testing.T) {
		// Force a same-domain successor. Domains are dealt round-robin:
		// the holder gets domain 0, the first waiter domain 1 and the
		// second domain 0, queued behind the holder, so the release must
		// hand off inside the domain.
		l := NewWith(Opts{Algorithm: Cohort, Domains: 2, HandoffBudget: 16})
		a := l.algo
		l.Lock()
		var wg sync.WaitGroup
		for w := uint32(1); w <= 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.Lock()
				l.Unlock()
			}()
			for a.rr.Load() != w+1 {
				runtime.Gosched()
			}
		}
		for a.domains[0].cur.next.Load() == nil {
			runtime.Gosched()
		}
		l.Unlock()
		wg.Wait()
		if s := l.AlgoStats(); s.Handoffs == 0 || s.Local == 0 {
			t.Fatalf("stats %+v: the queued same-domain successor got no local handoff", s)
		}
	})
}

// contendSlow holds the lock across a sleep so waiters reliably exhaust a
// small spin budget and park.
func contendSlow(l *Lock, workers, iters int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock()
				time.Sleep(20 * time.Microsecond)
				l.Unlock()
			}
		}()
	}
	wg.Wait()
}

// TestAlgoTraceIntegration: a classed queue lock must feed the same
// contention accounting as the default path — contended acquisitions
// counted, waits measured, releases balanced — so Recommend and the
// profile reports work unchanged across the arsenal.
func TestAlgoTraceIntegration(t *testing.T) {
	for _, p := range arsenalPolicies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			trace.Enable()
			defer trace.Disable()
			c := trace.NewClass("splock", "algo."+p.String(), trace.KindSpin)
			l := NewWith(Opts{Algorithm: p, Class: c, Name: "algo." + p.String(), SpinBudget: 4, Domains: 2})
			contendSlow(l, 4, 25)
			prof := c.Snapshot()
			if prof.Acquisitions == 0 {
				t.Fatal("classed arsenal lock recorded no acquisitions")
			}
			if prof.Releases != prof.Acquisitions {
				t.Fatalf("unbalanced accounting: %d acquisitions, %d releases",
					prof.Acquisitions, prof.Releases)
			}
			if prof.Contended == 0 {
				t.Fatalf("4 workers × 25 slow holds recorded no contention (%+v)", prof)
			}
		})
	}
}

// TestAlgoUnlockSanity: foreign/double unlock must panic on the arsenal
// paths exactly as on the default path.
func TestAlgoUnlockSanity(t *testing.T) {
	for _, p := range []Policy{Queue, Cohort, Adaptive} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("unlock of a free lock did not panic")
				}
			}()
			l := NewWith(Opts{Algorithm: p, Domains: 2})
			l.Unlock()
		})
	}
}

// TestNewWithZeroOptsIsDefault: the zero Opts must build a lock
// indistinguishable from the zero value (nil algo, default path).
func TestNewWithZeroOptsIsDefault(t *testing.T) {
	l := NewWith(Opts{})
	if l.Algorithm() != TASTTAS {
		t.Fatalf("zero Opts built %v, want TASTTAS", l.Algorithm())
	}
	l.Lock()
	if !l.Locked() {
		t.Fatal("default lock not held after Lock")
	}
	l.Unlock()
}
