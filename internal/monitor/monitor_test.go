package monitor

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"machlock/internal/core/cxlock"
	"machlock/internal/core/splock"
	"machlock/internal/sched"
	"machlock/internal/trace"
)

// startMonitor starts m and guarantees Stop runs at test end.
func startMonitor(t *testing.T, m *Monitor) {
	t.Helper()
	m.Start()
	t.Cleanup(m.Stop)
}

func TestWatchdogCatchesInjectedDeadlock(t *testing.T) {
	m := New(Config{
		Interval:          5 * time.Millisecond,
		DeadlockSamples:   3,
		DeadlockSampleGap: time.Millisecond,
	})
	startMonitor(t, m)

	// Traced classes so the flight recorder has events for the ring tail.
	ca := trace.NewClass("montest", "montest.A", trace.KindComplex)
	cb := trace.NewClass("montest", "montest.B", trace.KindComplex)
	a := cxlock.NewWith(cxlock.Options{Sleep: true, Name: "mon.A", Class: ca})
	b := cxlock.NewWith(cxlock.Options{Sleep: true, Name: "mon.B", Class: cb})
	m.Tracker().Name(a, "mon.A")
	m.Tracker().Name(b, "mon.B")

	var firstHolds sync.WaitGroup
	firstHolds.Add(2)
	gate := make(chan struct{})
	sched.Go("mon-t1", func(self *sched.Thread) {
		a.Write(self)
		firstHolds.Done()
		<-gate
		b.Write(self) // deadlocks against mon-t2
		b.Done(self)
		a.Done(self)
	})
	sched.Go("mon-t2", func(self *sched.Thread) {
		b.Write(self)
		firstHolds.Done()
		<-gate
		a.Write(self)
		a.Done(self)
		b.Done(self)
	})
	firstHolds.Wait()
	close(gate)

	deadline := time.Now().Add(10 * time.Second)
	for m.IncidentCount(KindDeadlock) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("watchdog never filed a deadlock incident; tracker:\n%s",
				m.Tracker().Snapshot())
		}
		time.Sleep(2 * time.Millisecond)
	}

	var inc *Incident
	for _, in := range m.Incidents().Snapshot() {
		if in.Kind == KindDeadlock {
			inc = &in
			break
		}
	}
	if inc == nil {
		t.Fatal("deadlock incident counted but not in log")
	}
	if len(inc.Cycles) == 0 {
		t.Fatalf("incident has no cycles: %s", inc.String())
	}
	cycle := inc.Cycles[0]
	for _, want := range []string{"mon-t1", "mon-t2", "mon.A", "mon.B"} {
		if !strings.Contains(cycle, want) {
			t.Fatalf("cycle %q does not name %q", cycle, want)
		}
	}
	if len(inc.RingTail) == 0 {
		t.Fatal("incident captured an empty flight-recorder tail")
	}
	if !strings.Contains(inc.WaitGraphDOT, "digraph waitfor") {
		t.Fatalf("incident wait graph malformed:\n%s", inc.WaitGraphDOT)
	}

	// The same cycle must not be re-filed on every subsequent pass.
	n := m.IncidentCount(KindDeadlock)
	time.Sleep(50 * time.Millisecond)
	if again := m.IncidentCount(KindDeadlock); again != n {
		t.Fatalf("stable cycle re-filed: %d -> %d incidents", n, again)
	}
	// The deadlocked goroutines are intentionally left parked.
}

func TestIncidentLogBoundsAndEviction(t *testing.T) {
	lg := NewIncidentLog(4)
	for i := 0; i < 10; i++ {
		lg.Add(Incident{Kind: KindLongHold, Summary: "x"})
	}
	if lg.Len() != 4 {
		t.Fatalf("Len = %d, want 4", lg.Len())
	}
	if lg.Total() != 10 {
		t.Fatalf("Total = %d, want 10", lg.Total())
	}
	if lg.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", lg.Dropped())
	}
	snap := lg.Snapshot()
	for i, in := range snap {
		if want := uint64(7 + i); in.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (oldest must be evicted)", i, in.Seq, want)
		}
	}
}

func TestIncidentLogNeverBlocks(t *testing.T) {
	// Concurrent filers against a tiny log: every Add must complete even
	// with no reader draining the log.
	lg := NewIncidentLog(2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				lg.Add(Incident{Kind: KindRefLeak, Summary: "flood"})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("incident log blocked its writers")
	}
	if lg.Total() != 800 {
		t.Fatalf("Total = %d, want 800", lg.Total())
	}
	if lg.Len() != 2 {
		t.Fatalf("Len = %d, want 2", lg.Len())
	}
}

func TestThresholdIncidentsAndDedup(t *testing.T) {
	m := New(Config{
		Interval:    time.Hour, // passes driven manually
		LongHoldNs:  int64(time.Millisecond),
		LongWaitNs:  int64(time.Hour), // never trips in this test
		RefLeakLive: 3,
	})
	startMonitor(t, m)

	cls := trace.NewClass("montest", "montest.holder", trace.KindComplex)
	l := cxlock.NewWith(cxlock.Options{Sleep: true, Class: cls})
	th := sched.New("holder")
	l.Write(th)
	time.Sleep(5 * time.Millisecond) // hold long enough to cross the threshold
	l.Done(th)

	leaky := trace.NewClass("montest", "montest.leaky", trace.KindRef)
	for i := 0; i < 5; i++ {
		leaky.CensusInc()
	}
	t.Cleanup(func() {
		for i := 0; i < 5; i++ {
			leaky.CensusDec()
		}
	})

	m.Pass()
	var holdHit, leakHit bool
	for _, in := range m.Incidents().Snapshot() {
		switch {
		case in.Kind == KindLongHold && in.Class == "montest/montest.holder":
			holdHit = true
		case in.Kind == KindRefLeak && in.Class == "montest/montest.leaky":
			leakHit = true
		}
	}
	if !holdHit {
		t.Fatalf("long-hold incident not filed; log:\n%v", m.Incidents().Snapshot())
	}
	if !leakHit {
		t.Fatalf("ref-leak incident not filed; log:\n%v", m.Incidents().Snapshot())
	}

	// Same anomalies must not be re-filed on the next pass.
	total := m.Incidents().Total()
	m.Pass()
	if again := m.Incidents().Total(); again != total {
		t.Fatalf("threshold incidents re-filed: %d -> %d", total, again)
	}
}

func TestStartStopRestoresTraceState(t *testing.T) {
	if trace.Enabled() {
		t.Skip("tracing already on outside the monitor")
	}
	m := New(Config{Interval: time.Hour})
	m.Start()
	if !trace.Enabled() {
		t.Fatal("Start did not enable tracing")
	}
	m.Stop()
	if trace.Enabled() {
		t.Fatal("Stop did not restore tracing to disabled")
	}
	// Idempotence.
	m.Stop()
	m.Start()
	m.Start()
	m.Stop()
}

func TestHTTPEndpoints(t *testing.T) {
	m := New(Config{Interval: time.Hour})
	startMonitor(t, m)
	m.Pass()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, sb.String())
		}
		if sb.Len() == 0 {
			t.Fatalf("GET %s: empty body", path)
		}
		return sb.String()
	}

	if body := get("/debug/machlock/"); !strings.Contains(body, "machlock monitor") {
		t.Fatalf("index malformed:\n%s", body)
	}
	if body := get("/debug/machlock/profiles"); !strings.Contains(body, "contention profile") {
		t.Fatalf("profiles malformed:\n%s", body)
	}
	if body := get("/debug/machlock/profiles?format=csv"); !strings.HasPrefix(body, "pkg,name,kind") {
		t.Fatalf("CSV profiles malformed:\n%s", body)
	}
	body := get("/debug/machlock/metrics")
	for _, want := range []string{
		"machlock_acquisitions_total",
		"machlock_monitor_up 1",
		"machlock_monitor_ticks_total",
		`machlock_monitor_incidents_total{kind="deadlock"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	if body := get("/debug/machlock/waitgraph"); !strings.Contains(body, "digraph waitfor") {
		t.Fatalf("waitgraph malformed:\n%s", body)
	}
	if body := get("/debug/machlock/incidents"); !strings.Contains(body, "incidents:") {
		t.Fatalf("incidents malformed:\n%s", body)
	}
	if body := get("/debug/machlock/incidents?format=json"); !strings.HasPrefix(strings.TrimSpace(body), "[") {
		t.Fatalf("JSON incidents malformed:\n%s", body)
	}
	get("/debug/machlock/ring") // non-empty is asserted inside get
}

// TestLongHoldSeenWithoutSampling: the long-hold check reads the exact
// hold histogram, not the sampled flight recorder, so a long hold files
// an incident even with stack sampling (and so ring sampling) off.
func TestLongHoldSeenWithoutSampling(t *testing.T) {
	trace.SetStackSampling(0)
	t.Cleanup(func() { trace.SetStackSampling(trace.DefaultStackSampleRate) })
	m := New(Config{Interval: time.Hour, LongHoldNs: int64(time.Millisecond)})
	startMonitor(t, m)

	cls := trace.NewClass("montest", "montest.unsampled", trace.KindSpin)
	var l splock.Lock
	l.SetClass(cls)
	l.Lock()
	time.Sleep(5 * time.Millisecond)
	l.Unlock()

	m.Pass()
	for _, in := range m.Incidents().Snapshot() {
		if in.Kind == KindLongHold && in.Class == "montest/montest.unsampled" {
			return
		}
	}
	t.Fatalf("long-hold incident not filed with sampling off; log:\n%v", m.Incidents().Snapshot())
}
