// Package sched implements the kernel-thread substrate and the event wait
// primitives of the Mach kernel described in Section 6 of the paper:
//
//	assert_wait    — declare the event to be waited for
//	thread_block   — context switch; waits only if the event has not occurred
//	thread_wakeup  — event-based occurrence (wakes all waiters on an event)
//	clear_wait     — thread-based occurrence (wakes one specific thread)
//	thread_sleep   — release a single lock and wait for an event, atomically
//
// The essential design point is that declaration (AssertWait) and the
// conditional wait (ThreadBlock) are split: a thread that must release locks
// before waiting calls AssertWait first, releases the locks, and then calls
// ThreadBlock. If the event occurs in the interim, ThreadBlock degenerates
// to a no-op that leaves the thread runnable — there is no window in which a
// wakeup can be lost. Experiment E7 measures exactly this property against a
// naive check-then-wait protocol.
//
// Kernel threads are carried by goroutines; a *Thread handle stands in for
// Mach's implicit current_thread(), since Go deliberately exposes no
// goroutine-local storage.
package sched

import (
	"fmt"
	"sync"
	"sync/atomic"

	"machlock/internal/trace"
)

// Event identifies an occurrence a thread may wait for. In Mach an event is
// a kernel address; here it is any comparable value, and by convention the
// pointer to the data structure involved (e.g. a *cxlock.Lock). The nil
// event is special: a thread asserted on the nil event is not entered in
// the event table and can only be awakened by ClearWait — the paper's
// "block threads on event zero (the null event), from which only a
// clear_wait can awaken them".
type Event any

// WaitResult reports why a blocked thread resumed.
type WaitResult int32

const (
	// Awakened means the awaited event occurred (thread_wakeup).
	Awakened WaitResult = iota
	// Restarted means the thread was resumed by ClearWait rather than by
	// its event; the caller should re-evaluate its condition.
	Restarted
	// NotWaiting is returned by ThreadBlock when the event occurred
	// between AssertWait and ThreadBlock, so no context switch happened.
	NotWaiting
)

// String implements fmt.Stringer.
func (r WaitResult) String() string {
	switch r {
	case Awakened:
		return "awakened"
	case Restarted:
		return "restarted"
	case NotWaiting:
		return "not-waiting"
	default:
		return fmt.Sprintf("waitresult(%d)", int32(r))
	}
}

// threadState tracks where a thread is in the wait protocol.
type threadState int32

const (
	running threadState = iota
	waiting             // AssertWait done, not yet blocked
	blocked             // parked in ThreadBlock
)

// Thread is a kernel thread: the entity that holds locks and references in
// the Mach model. Create threads with New (bare) or Go (running a function
// on its own goroutine).
type Thread struct {
	name string
	tid  uint32 // trace.RegisterThread id, for timeline tracks and blame

	// span is the thread's innermost open trace span (trace.SpanOwner);
	// touched only by the thread itself.
	span trace.SpanSlot

	mu     sync.Mutex
	cond   *sync.Cond
	state  threadState
	event  Event
	result WaitResult

	// spinHeld counts checked simple locks currently held; ThreadBlock
	// panics while it is nonzero, enforcing the paper's design
	// requirement that simple locks may not be held across blocking
	// operations ("violations of this restriction cause kernel
	// deadlocks").
	spinHeld atomic.Int32

	// ranks is the stack of lock-ordering ranks held, maintained by the
	// splock hierarchy checker.
	ranks []int

	blocks      atomic.Int64 // ThreadBlock calls that actually blocked
	shortBlocks atomic.Int64 // ThreadBlock calls satisfied without blocking

	done chan struct{}
	err  any // recovered panic value from Go-started body, if any
}

// New creates a thread handle with the given name. The handle may be used
// from whatever goroutine is currently "being" the thread; the caller is
// responsible for using one goroutine at a time.
func New(name string) *Thread {
	t := &Thread{name: name, tid: trace.RegisterThread(name), done: make(chan struct{})}
	t.cond = sync.NewCond(&t.mu)
	close(t.done) // a bare thread is not joinable-pending
	return t
}

// Go creates a thread and runs body on a new goroutine. Join waits for the
// body to return. A panic in the body is captured and re-raised by Join.
func Go(name string, body func(t *Thread)) *Thread {
	t := &Thread{name: name, tid: trace.RegisterThread(name), done: make(chan struct{})}
	t.cond = sync.NewCond(&t.mu)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				t.err = r
			}
			close(t.done)
		}()
		body(t)
	}()
	return t
}

// Join waits for a Go-started thread's body to return, re-panicking with
// the body's panic value if it panicked.
func (t *Thread) Join() {
	<-t.done
	if t.err != nil {
		panic(t.err)
	}
}

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// TraceID returns the thread's trace id (see trace.RegisterThread), 0 for
// the nil thread. Lock events the thread records carry it, and spans it
// opens land on its timeline track.
func (t *Thread) TraceID() uint32 {
	if t == nil {
		return 0
	}
	return t.tid
}

// SpanSlot returns the thread's innermost-open-span slot, making the
// thread a trace.SpanOwner. The nil thread has no slot, so spans opened
// on its behalf are anonymous and wait crediting on it is inert.
func (t *Thread) SpanSlot() *trace.SpanSlot {
	if t == nil {
		return nil
	}
	return &t.span
}

// String implements fmt.Stringer.
func (t *Thread) String() string { return "thread(" + t.name + ")" }

// Blocks returns the number of ThreadBlock calls that actually parked the
// thread.
func (t *Thread) Blocks() int64 { return t.blocks.Load() }

// ShortBlocks returns the number of ThreadBlock calls that found the event
// already occurred and did not park.
func (t *Thread) ShortBlocks() int64 { return t.shortBlocks.Load() }

// NoteSpinAcquire records that the thread acquired a checked simple lock.
// It is called by splock's checked lock implementation.
func (t *Thread) NoteSpinAcquire() { t.spinHeld.Add(1) }

// NoteSpinRelease records that the thread released a checked simple lock.
func (t *Thread) NoteSpinRelease() {
	if t.spinHeld.Add(-1) < 0 {
		panic("sched: simple lock release without acquire on " + t.name)
	}
}

// SpinLocksHeld returns the number of checked simple locks the thread
// currently holds.
func (t *Thread) SpinLocksHeld() int { return int(t.spinHeld.Load()) }

// PushRank records acquisition of a lock with the given ordering rank; part
// of the lock hierarchy checker protocol (see splock.Hierarchy).
func (t *Thread) PushRank(rank int) {
	t.mu.Lock()
	t.ranks = append(t.ranks, rank)
	t.mu.Unlock()
}

// PopRank records release of a lock with the given ordering rank.
func (t *Thread) PopRank(rank int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.ranks) - 1; i >= 0; i-- {
		if t.ranks[i] == rank {
			t.ranks = append(t.ranks[:i], t.ranks[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("sched: %s released rank %d it does not hold", t.name, rank))
}

// HeldRanks returns a snapshot of the ordering ranks currently held.
func (t *Thread) HeldRanks() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, len(t.ranks))
	copy(out, t.ranks)
	return out
}
