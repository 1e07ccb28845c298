package sched_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"machlock/internal/sched"
	"machlock/internal/trace"
)

// stubOwner is the smallest trace.SpanOwner: the span-slot contract
// without a scheduler behind it.
type stubOwner struct {
	tid  uint32
	slot trace.SpanSlot
}

func (o *stubOwner) TraceID() uint32 { return o.tid }

func (o *stubOwner) SpanSlot() *trace.SpanSlot { return &o.slot }

var opSeq atomic.Int64

func newOp(t *testing.T, suffix string) *trace.Class {
	return trace.NewOp("spantest", fmt.Sprintf("%s%s#%d", t.Name(), suffix, opSeq.Add(1)))
}

// owners returns one span owner of each implementation under test.
func owners(t *testing.T) map[string]trace.SpanOwner {
	return map[string]trace.SpanOwner{
		"thread": sched.New(t.Name()),
		"stub":   &stubOwner{tid: trace.RegisterThread(t.Name() + "-stub")},
	}
}

// TestSpanSlotNestingAndWaits: nested spans and wait crediting behave the
// same on a *sched.Thread as on a stub owner — the inner span is current
// while open, the bracketed and direct waits land on it, and ending it
// restores the parent and propagates the wait outward.
func TestSpanSlotNestingAndWaits(t *testing.T) {
	trace.Enable()
	defer trace.Disable()
	for name, owner := range owners(t) {
		t.Run(name, func(t *testing.T) {
			outerOp, innerOp := newOp(t, "-outer"), newOp(t, "-inner")
			if trace.CurrentSpan(owner) != nil {
				t.Fatal("fresh owner has a current span")
			}
			outer := trace.BeginSpan(owner, outerOp)
			inner := trace.BeginSpan(owner, innerOp)
			if trace.CurrentSpan(owner) != inner {
				t.Fatal("inner span not current while nested")
			}
			trace.SpanWaitStart(owner)
			time.Sleep(time.Millisecond)
			trace.SpanWaitEnd(owner)
			trace.SpanAddWait(owner, 1000)
			waited := inner.WaitNs()
			if waited < int64(time.Millisecond)+1000 {
				t.Fatalf("inner span credited %dns, want >= 1ms+1000ns", waited)
			}
			if outer.WaitNs() != 0 {
				t.Fatal("wait credited to the parent while the child was open")
			}
			inner.End()
			if trace.CurrentSpan(owner) != outer {
				t.Fatal("parent not restored after the child ended")
			}
			if outer.WaitNs() != waited {
				t.Fatalf("parent credited %dns, child waited %dns", outer.WaitNs(), waited)
			}
			outer.End()
			if trace.CurrentSpan(owner) != nil {
				t.Fatal("span still current after the outermost End")
			}
			for _, op := range []*trace.Class{innerOp, outerOp} {
				if p := op.Snapshot(); p.Acquisitions != 1 || p.Contended != 1 {
					t.Fatalf("%s: %d spans, %d with waits; want 1, 1", op.Name(), p.Acquisitions, p.Contended)
				}
			}
		})
	}
}

// TestSpanNilOwnersInert: a nil owner and a typed-nil *sched.Thread (a
// kernel path with no current thread) open anonymous spans that record
// latency but are never current and take no wait credit.
func TestSpanNilOwnersInert(t *testing.T) {
	trace.Enable()
	defer trace.Disable()
	var nilThread *sched.Thread
	for name, owner := range map[string]trace.SpanOwner{"nil": nil, "typed-nil thread": nilThread} {
		t.Run(name, func(t *testing.T) {
			op := newOp(t, "")
			s := trace.BeginSpan(owner, op)
			if s == nil {
				t.Fatal("anonymous span not opened")
			}
			if trace.CurrentSpan(owner) != nil {
				t.Fatal("nil owner has a current span")
			}
			trace.SpanWaitStart(owner)
			trace.SpanWaitEnd(owner)
			trace.SpanAddWait(owner, 1000)
			if s.WaitNs() != 0 {
				t.Fatalf("anonymous span credited %dns", s.WaitNs())
			}
			s.End()
			if p := op.Snapshot(); p.Acquisitions != 1 || p.Contended != 0 {
				t.Fatalf("anonymous span profile %d/%d; want 1 span, no waits", p.Acquisitions, p.Contended)
			}
		})
	}
	if nilThread.TraceID() != 0 || nilThread.SpanSlot() != nil {
		t.Fatal("nil thread has an identity or a span slot")
	}
}

// TestSpanSlotsPerThread: threads running nested spans concurrently each
// see only their own spans; under -race this checks that the slot needs
// no synchronization beyond being owned by its thread.
func TestSpanSlotsPerThread(t *testing.T) {
	trace.Enable()
	defer trace.Disable()
	outerOp, innerOp := newOp(t, "-outer"), newOp(t, "-inner")
	const threads, iters = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		sched.Go(fmt.Sprintf("%s-%d", t.Name(), i), func(self *sched.Thread) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				outer := trace.BeginSpan(self, outerOp)
				inner := trace.BeginSpan(self, innerOp)
				trace.SpanAddWait(self, 10)
				if trace.CurrentSpan(self) != inner {
					t.Error("another thread's span is current")
				}
				inner.End()
				outer.End()
			}
		})
	}
	wg.Wait()
	if p := innerOp.Snapshot(); p.Acquisitions != threads*iters || p.Contended != threads*iters {
		t.Fatalf("inner spans %d, with waits %d; want %d each", p.Acquisitions, p.Contended, threads*iters)
	}
	if p := outerOp.Snapshot(); p.Acquisitions != threads*iters || p.Contended != threads*iters {
		t.Fatalf("outer spans %d, with waits %d; want %d each", p.Acquisitions, p.Contended, threads*iters)
	}
}
