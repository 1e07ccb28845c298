package trace

import (
	"sync"
	"testing"
	"time"
)

func opClass(t *testing.T, suffix string) *Class {
	t.Helper()
	return NewOp("tracetest", t.Name()+suffix)
}

func TestThreadRegistry(t *testing.T) {
	tid := RegisterThread(t.Name())
	if tid == 0 {
		t.Fatal("RegisterThread handed out the reserved id 0")
	}
	if ThreadName(tid) != t.Name() {
		t.Fatalf("ThreadName(%d) = %q", tid, ThreadName(tid))
	}
	if ThreadName(0) != "" || ThreadName(1<<30) != "" {
		t.Fatal("ThreadName for unknown ids not empty")
	}
}

func TestSpanDisabledAndNil(t *testing.T) {
	Disable()
	op := opClass(t, "-op")
	s := BeginSpan(newStubOwner(1), op)
	if s != nil {
		t.Fatal("BeginSpan returned a span while tracing disabled")
	}
	s.End() // nil-safe
	if s.WaitNs() != 0 || s.Op() != nil {
		t.Fatal("nil span accessors not inert")
	}
	// Wait hooks with no open span anywhere must be one-load no-ops.
	SpanWaitStart(newStubOwner(1))
	SpanWaitEnd(newStubOwner(1))
	SpanAddWait(newStubOwner(1), 100)
	if op.Snapshot().Acquisitions != 0 {
		t.Fatal("disabled span recorded")
	}
}

// TestSpanNestingAndWaitPropagation: a child span's lock wait counts inside
// the parent's wall clock, so ending the child must both record the wait on
// the child's class and propagate it outward to the parent.
func TestSpanNestingAndWaitPropagation(t *testing.T) {
	Enable()
	defer Disable()
	outerOp := opClass(t, "-outer")
	innerOp := opClass(t, "-inner")
	owner := newStubOwner(RegisterThread(t.Name()))

	outer := BeginSpan(owner, outerOp)
	if CurrentSpan(owner) != outer {
		t.Fatal("outer span not current after begin")
	}
	inner := BeginSpan(owner, innerOp)
	if CurrentSpan(owner) != inner {
		t.Fatal("inner span not current while nested")
	}

	// A lock wait inside the inner span, credited via the observer-bridge
	// entry points.
	SpanWaitStart(owner)
	time.Sleep(2 * time.Millisecond)
	SpanWaitEnd(owner)
	if inner.WaitNs() <= 0 {
		t.Fatal("inner span did not accumulate the bracketed wait")
	}
	SpanAddWait(owner, 1000) // direct credit path
	waited := inner.WaitNs()

	inner.End()
	if CurrentSpan(owner) != outer {
		t.Fatal("parent span not restored after child End")
	}
	if outer.WaitNs() != waited {
		t.Fatalf("parent credited %dns, child accumulated %dns", outer.WaitNs(), waited)
	}
	outer.End()
	if CurrentSpan(owner) != nil {
		t.Fatal("span still current after outermost End")
	}

	for _, tc := range []struct {
		op        *Class
		contended int64
	}{{innerOp, 1}, {outerOp, 1}} {
		p := tc.op.Snapshot()
		if p.Acquisitions != 1 || p.Contended != tc.contended {
			t.Fatalf("%s: count=%d contended=%d", tc.op.name, p.Acquisitions, p.Contended)
		}
	}

	// The op rows must surface through OpProfiles with the wait/work split.
	var found *OpProfile
	profiles := OpProfiles()
	for i := range profiles {
		if profiles[i].Name == innerOp.name {
			found = &profiles[i]
			break
		}
	}
	if found == nil {
		t.Fatal("inner op missing from OpProfiles")
	}
	if found.Count != 1 || found.Contended != 1 {
		t.Fatalf("op profile wrong: %+v", found)
	}
	if found.MaxNs <= 0 {
		t.Fatalf("op profile lost the latency: %+v", found)
	}
}

// TestSpanWaitTruncatedAtEnd: an End inside an open wait window truncates
// the wait rather than losing it (and never records negative work).
func TestSpanWaitTruncatedAtEnd(t *testing.T) {
	Enable()
	defer Disable()
	op := opClass(t, "-op")
	owner := newStubOwner(RegisterThread(t.Name()))
	s := BeginSpan(owner, op)
	SpanWaitStart(owner)
	time.Sleep(time.Millisecond)
	s.End() // wait still open
	if s.WaitNs() <= 0 {
		t.Fatal("open wait window lost at End")
	}
	p := op.Snapshot()
	if p.Contended != 1 {
		t.Fatalf("truncated wait not recorded: %+v", p)
	}
}

// TestSpanAnonymousOwner: owner-less spans record latency but cannot be
// credited waits and never touch the current-span registry.
func TestSpanAnonymousOwner(t *testing.T) {
	Enable()
	defer Disable()
	op := opClass(t, "-op")
	s := BeginSpan(nil, op)
	if s == nil {
		t.Fatal("anonymous span not created")
	}
	if CurrentSpan(nil) != nil {
		t.Fatal("nil owner must not be registered")
	}
	s.End()
	if p := op.Snapshot(); p.Acquisitions != 1 {
		t.Fatalf("anonymous span not recorded: %+v", p)
	}
}

// TestSpanConcurrentOwners: many threads each running nested spans with
// interleaved waits; run under -race this is the data-race check for the
// span registry and the openSpans gate.
func TestSpanConcurrentOwners(t *testing.T) {
	Enable()
	defer Disable()
	outerOp := opClass(t, "-outer")
	innerOp := opClass(t, "-inner")
	const goroutines = 8
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		owner := newStubOwner(RegisterThread(t.Name()))
		go func(owner *stubOwner) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				outer := BeginSpan(owner, outerOp)
				inner := BeginSpan(owner, innerOp)
				SpanWaitStart(owner)
				SpanWaitEnd(owner)
				SpanAddWait(owner, 10)
				inner.End()
				outer.End()
			}
		}(owner)
	}
	wg.Wait()
	if p := outerOp.Snapshot(); p.Acquisitions != goroutines*iters {
		t.Fatalf("lost outer spans: %+v", p)
	}
	if p := innerOp.Snapshot(); p.Acquisitions != goroutines*iters || p.Contended != goroutines*iters {
		t.Fatalf("lost inner spans: %+v", p)
	}
}
