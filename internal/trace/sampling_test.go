package trace_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"machlock/internal/core/cxlock"
	"machlock/internal/core/object"
	"machlock/internal/core/splock"
	"machlock/internal/trace"
)

// These tests drive the real lock packages through the sampled flight
// recorder: counters, histograms and contended or terminal events stay
// exact while uncontended acquire/release pairs are sampled.

// withRate enables tracing with stack sampling at rate on an empty ring
// and restores the defaults at test end.
func withRate(t *testing.T, rate int) {
	t.Helper()
	trace.SetStackSampling(rate)
	trace.ResetEvents()
	trace.Enable()
	t.Cleanup(func() {
		trace.Disable()
		trace.SetStackSampling(trace.DefaultStackSampleRate)
	})
}

// ringOps returns the flight-recorder ops of class c, oldest first.
func ringOps(c *trace.Class) []trace.Event {
	var out []trace.Event
	for _, e := range trace.Events(0) {
		if e.Class == c {
			out = append(out, e)
		}
	}
	return out
}

func opNames(evs []trace.Event) []string {
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.Op.String()
	}
	return out
}

func sameOps(t *testing.T, what string, evs []trace.Event, want ...string) {
	t.Helper()
	got := opNames(evs)
	if len(got) != len(want) {
		t.Fatalf("%s: ring ops %v, want %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: ring ops %v, want %v", what, got, want)
		}
	}
}

// classSeq makes every class fresh — its counters and sampling roll start
// at zero — even when the tests run with -count.
var classSeq atomic.Int64

func newClass(t *testing.T, suffix string, kind trace.Kind) *trace.Class {
	t.Helper()
	return trace.NewClass("samplingtest", fmt.Sprintf("%s%s#%d", t.Name(), suffix, classSeq.Add(1)), kind)
}

// TestRateOneRecordsEveryEvent: with SetStackSampling(1) the ring holds
// every event of a classed splock, an object's TakeRef/Release and a
// cxlock read, exactly as an unsampled recorder would.
func TestRateOneRecordsEveryEvent(t *testing.T) {
	withRate(t, 1)

	sc := newClass(t, "-spin", trace.KindSpin)
	var sl splock.Lock
	sl.SetClass(sc)
	sl.Lock()
	sl.Unlock()
	sameOps(t, "splock", ringOps(sc), "acquire", "release")

	oc := newClass(t, "-obj", trace.KindObject)
	var o object.Object
	o.Init("samplingtest")
	o.SetClass(oc)
	o.TakeRef()
	o.Release(nil)
	sameOps(t, "object", ringOps(oc),
		"acquire", "ref-clone", "release",
		"acquire", "ref-release", "release")
	evs := ringOps(oc)
	if evs[1].Arg != 2 || evs[4].Arg != 1 {
		t.Fatalf("ref counts in the ring: clone %d, release %d; want 2, 1", evs[1].Arg, evs[4].Arg)
	}
	o.Release(nil) // the creator's reference; destroys the object

	cc := newClass(t, "-cx", trace.KindComplex)
	cl := cxlock.NewWith(cxlock.Options{Class: cc})
	cl.Read(nil)
	cl.Done(nil)
	sameOps(t, "cxlock read", ringOps(cc), "acquire", "release")
}

// checkPaired asserts the ring's acquire/release events for a
// single-threaded run strictly alternate, acquire first: every recorded
// release has its recorded acquire.
func checkPaired(t *testing.T, what string, evs []trace.Event) (pairs int) {
	t.Helper()
	want := trace.OpAcquire
	for _, e := range evs {
		if e.Op != trace.OpAcquire && e.Op != trace.OpRelease {
			continue
		}
		if e.Op != want {
			t.Fatalf("%s: unpaired %s in %v", what, e.Op, opNames(evs))
		}
		if want == trace.OpRelease {
			pairs++
			want = trace.OpAcquire
		} else {
			want = trace.OpRelease
		}
	}
	if want != trace.OpAcquire {
		t.Fatalf("%s: acquire without release in %v", what, opNames(evs))
	}
	return pairs
}

// TestDefaultRateCountsExact: at the default sampling rate, N uncontended
// cycles still count N acquisitions, N releases and N hold samples, while
// the ring keeps only the sampled pairs — each one complete.
func TestDefaultRateCountsExact(t *testing.T) {
	withRate(t, trace.DefaultStackSampleRate)
	const n = 5*trace.DefaultStackSampleRate + 3

	for _, tc := range []struct {
		name  string
		kind  trace.Kind
		cycle func(c *trace.Class) func()
		locks int // lock acquisitions per cycle
	}{
		{"splock", trace.KindSpin, func(c *trace.Class) func() {
			l := &splock.Lock{}
			l.SetClass(c)
			return func() { l.Lock(); l.Unlock() }
		}, 1},
		{"cxlock-read", trace.KindComplex, func(c *trace.Class) func() {
			l := cxlock.NewWith(cxlock.Options{Class: c})
			return func() { l.Read(nil); l.Done(nil) }
		}, 1},
		{"cxlock-write", trace.KindComplex, func(c *trace.Class) func() {
			l := cxlock.NewWith(cxlock.Options{Class: c})
			return func() { l.Write(nil); l.Done(nil) }
		}, 1},
		{"object", trace.KindObject, func(c *trace.Class) func() {
			o := &object.Object{}
			o.Init("samplingtest")
			o.SetClass(c)
			return func() { o.TakeRef(); o.Release(nil) }
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newClass(t, "", tc.kind)
			cycle := tc.cycle(c)
			for i := 0; i < n; i++ {
				cycle()
			}
			p := c.Snapshot()
			want := int64(n * tc.locks)
			if p.Acquisitions != want || p.Releases != want || trace.HoldSamples(c) != want {
				t.Fatalf("acquisitions %d, releases %d, hold samples %d; want %d each",
					p.Acquisitions, p.Releases, trace.HoldSamples(c), want)
			}
			if p.Contended != 0 {
				t.Fatalf("uncontended cycles counted %d contended", p.Contended)
			}
			pairs := checkPaired(t, tc.name, ringOps(c))
			if pairs == 0 || int64(pairs) >= want {
				t.Fatalf("ring kept %d of %d acquire/release pairs; want a sample", pairs, want)
			}
		})
	}
}

// TestContendedAlwaysRecorded: an acquisition that had to wait is written
// to the ring with its wait and its release even when the sampling roll
// passes it over.
func TestContendedAlwaysRecorded(t *testing.T) {
	withRate(t, trace.DefaultStackSampleRate)
	c := newClass(t, "", trace.KindSpin)
	var l splock.Lock
	l.SetClass(c)
	l.Lock() // the class's first roll fires: a sampled pair
	l.Unlock()
	l.Lock() // unsampled holder

	done := make(chan struct{})
	go func() {
		l.Lock() // spins behind the holder: contended, unsampled roll
		l.Unlock()
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		waiting := false
		for _, e := range ringOps(c) {
			waiting = waiting || e.Op == trace.OpWait
		}
		if waiting {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never started spinning")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(time.Millisecond)
	l.Unlock() // the unsampled holder's release is not recorded
	<-done

	// The end of the wait and the acquisition share one clock stamp, so
	// their relative order in the merged dump is not fixed.
	evs := ringOps(c)
	if len(evs) == 6 && evs[3].Op == trace.OpAcquire {
		evs[3], evs[4] = evs[4], evs[3]
	}
	sameOps(t, "contended", evs, "acquire", "release", "wait", "done-wait", "acquire", "release")
	if evs[4].Arg <= 0 || evs[4].TimeNs != evs[3].TimeNs {
		t.Fatalf("contended acquire: wait %dns at %d, done-wait at %d; want a wait stamped with the done-wait",
			evs[4].Arg, evs[4].TimeNs, evs[3].TimeNs)
	}
	if p := c.Snapshot(); p.Acquisitions != 3 || p.Contended != 1 || p.Releases != 3 {
		t.Fatalf("profile %+v; want 3 acquisitions, 1 contended, 3 releases", p)
	}
}

// TestReleaseToZeroAlwaysRecorded: reference clones and releases go
// through the sampling roll, but the release that reaches zero — the
// object's destruction — is always in the ring.
func TestReleaseToZeroAlwaysRecorded(t *testing.T) {
	withRate(t, trace.DefaultStackSampleRate)
	c := newClass(t, "", trace.KindObject)
	var o object.Object
	o.Init("samplingtest")
	o.SetClass(c)
	o.Reference()  // the first reference roll fires: a sampled clone
	o.TakeRef()    // the clone's roll does not fire
	o.Release(nil) // nor does the release to 2's
	o.Release(nil) // nor the release to 1's
	if !o.Release(nil) {
		t.Fatal("last release did not destroy the object")
	}
	var refOps []string
	var last trace.Event
	for _, e := range ringOps(c) {
		if e.Op == trace.OpRefClone || e.Op == trace.OpRefRelease {
			refOps = append(refOps, e.Op.String())
			last = e
		}
	}
	if len(refOps) != 2 || refOps[0] != "ref-clone" || last.Op != trace.OpRefRelease || last.Arg != 0 {
		t.Fatalf("ref events in the ring %v (last arg %d); want the sampled clone and the release to zero", refOps, last.Arg)
	}
	if p := c.Snapshot(); p.RefClones != 2 || p.RefReleases != 3 {
		t.Fatalf("ref counters %+v; want 2 clones, 3 releases", p)
	}
}
