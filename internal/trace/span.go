package trace

import "sync"

// This file is the operation-span half of the attribution layer: a
// lightweight begin/end API that brackets one kernel operation (a vm fault,
// an ipc send, a task create) and splits its latency into lock-wait and
// work. Spans nest; lock waits are credited to the innermost open span of
// the waiting thread (and propagate outward when it ends, since a parent's
// wall clock contains its children's waits).
//
// Wait crediting arrives through the lock observers — see
// internal/opspan, which bridges the cxlock observer fan-out to
// SpanWaitStart/SpanWaitEnd — so span accounting adds nothing to lock hot
// paths. The innermost open span lives on the thread itself (SpanOwner),
// so finding it is a field load, not a lookup in a shared table.

// thread registry -----------------------------------------------------------

// threadTab maps small trace ids to thread names for timeline tracks and
// event dumps. Registration happens at thread creation (sched.New / Go),
// never on lock paths.
var threadTab struct {
	mu    sync.Mutex
	names []string // index = tid - 1
}

// RegisterThread allocates a trace id for a kernel thread. Ids are small
// and dense so the timeline export can enumerate tracks; id 0 is reserved
// for anonymous (nil-thread) operations.
func RegisterThread(name string) uint32 {
	threadTab.mu.Lock()
	defer threadTab.mu.Unlock()
	threadTab.names = append(threadTab.names, name)
	return uint32(len(threadTab.names))
}

// ThreadName returns the name registered for tid ("" for 0 or unknown).
func ThreadName(tid uint32) string {
	threadTab.mu.Lock()
	defer threadTab.mu.Unlock()
	if tid == 0 || int(tid) > len(threadTab.names) {
		return ""
	}
	return threadTab.names[tid-1]
}

// threadCount returns how many thread ids have been handed out.
func threadCount() int {
	threadTab.mu.Lock()
	defer threadTab.mu.Unlock()
	return len(threadTab.names)
}

// SpanOwner is a thread handle that carries a trace id and keeps its own
// innermost-open-span slot (sched.Thread does). Spans opened on behalf of
// an owner are stamped onto its timeline track and credited its lock
// waits. A nil handle — including a typed nil such as a nil
// *sched.Thread — must return a nil slot, which makes every span call on
// it inert.
type SpanOwner interface {
	TraceID() uint32
	SpanSlot() *SpanSlot
}

// SpanSlot holds a thread's innermost open span. It belongs to the thread
// that owns it: only that thread opens and closes spans in it and credits
// waits through it, so it needs no synchronization. The zero value is
// empty.
type SpanSlot struct{ cur *Span }

// op classes ---------------------------------------------------------------

// NewOp registers an operation class: a Class of KindOp whose accounting
// reads as operation latency rather than lock occupancy — Acquisitions is
// completed spans, the hold histogram is total span latency, the wait
// histogram is in-span lock wait, and the work histogram is their
// difference. Op classes ride the same registry, Prometheus exposition,
// and flight recorder as lock classes.
func NewOp(pkg, name string) *Class { return NewClass(pkg, name, KindOp) }

// spans --------------------------------------------------------------------

// Span is one open operation. All fields are owned by the operating thread.
// The zero Span and the nil Span are inert, so instrumented operations can
// call BeginSpan/End unconditionally — with tracing disabled BeginSpan
// returns nil and End is a nil-receiver no-op.
type Span struct {
	op     *Class
	slot   *SpanSlot // owner's slot; nil for anonymous spans
	parent *Span
	tid    uint32

	startNs int64
	waitNs  int64 // accumulated lock wait inside the span
	waitAt  int64 // nonzero while a lock wait is in progress
}

// slotOf returns owner's span slot, nil for a nil or typed-nil owner.
func slotOf(owner SpanOwner) *SpanSlot {
	if owner == nil {
		return nil
	}
	return owner.SpanSlot()
}

// BeginSpan opens a span for an operation of class op on behalf of owner
// (normally the *sched.Thread performing it; it must be the handle the
// thread also passes to its locks, since wait crediting goes through its
// slot). Returns nil — and records nothing — while tracing is disabled.
// owner may be nil for anonymous operations: latency is still recorded,
// but lock waits cannot be credited and the span appears on the anonymous
// timeline track.
func BeginSpan(owner SpanOwner, op *Class) *Span {
	if !op.On() {
		return nil
	}
	s := &Span{op: op, startNs: Now()}
	if s.slot = slotOf(owner); s.slot != nil {
		s.tid = owner.TraceID()
		s.parent = s.slot.cur
		s.slot.cur = s
	}
	emit(op.id, OpSpanBegin, 0, s.tid, s.startNs)
	return s
}

// End closes the span, recording total latency, accumulated lock wait, and
// their difference into the op class, and propagating the wait to the
// parent span (a parent's wall clock contains the child's waits). Must be
// called by the owning thread. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := Now()
	if s.waitAt != 0 {
		// A wait is still open (End inside a wait window should not
		// happen, but truncate rather than lose the time).
		s.waitNs += now - s.waitAt
		s.waitAt = 0
	}
	total := now - s.startNs
	work := total - s.waitNs
	if work < 0 {
		work = 0
	}
	c := s.op
	c.acquisitions.Inc()
	c.hold.Observe(total)
	c.wait.Observe(s.waitNs)
	c.work.Observe(work)
	if s.waitNs > 0 {
		c.contended.Inc()
	}
	if s.slot != nil {
		if s.parent != nil {
			s.parent.waitNs += s.waitNs
		}
		s.slot.cur = s.parent
	}
	emit(c.id, OpSpanEnd, total, s.tid, now)
}

// WaitNs returns the lock wait accumulated so far (for tests).
func (s *Span) WaitNs() int64 {
	if s == nil {
		return 0
	}
	return s.waitNs
}

// Op returns the span's operation class (nil for a nil span).
func (s *Span) Op() *Class {
	if s == nil {
		return nil
	}
	return s.op
}

// CurrentSpan returns owner's innermost open span, or nil.
func CurrentSpan(owner SpanOwner) *Span {
	if sl := slotOf(owner); sl != nil {
		return sl.cur
	}
	return nil
}

// SpanWaitStart marks the beginning of a lock wait by owner. Called by the
// observer bridge (internal/opspan) from the waiting thread itself, so the
// span's fields need no synchronization. With no span open on owner it is
// a field load.
func SpanWaitStart(owner SpanOwner) {
	if s := CurrentSpan(owner); s != nil && s.waitAt == 0 {
		s.waitAt = Now()
	}
}

// SpanWaitEnd marks the end of a lock wait by owner, crediting the elapsed
// time to the innermost open span.
func SpanWaitEnd(owner SpanOwner) {
	if s := CurrentSpan(owner); s != nil && s.waitAt != 0 {
		s.waitNs += Now() - s.waitAt
		s.waitAt = 0
	}
}

// SpanAddWait credits ns of lock wait directly to owner's innermost open
// span — for call sites that know the duration but cannot bracket it.
func SpanAddWait(owner SpanOwner, ns int64) {
	if s := CurrentSpan(owner); s != nil && ns > 0 {
		s.waitNs += ns
	}
}

// OpProfile is the point-in-time summary of one operation class, the
// latency-split view the Prometheus surface reports.
type OpProfile struct {
	Name string
	Pkg  string

	Count     int64 // completed spans
	Contended int64 // spans that waited on at least one lock

	MeanNs int64
	P50Ns  int64
	P90Ns  int64
	P99Ns  int64
	MaxNs  int64

	P50WaitNs int64
	P90WaitNs int64
	P99WaitNs int64
	P50WorkNs int64
	P90WorkNs int64
	P99WorkNs int64
}

// OpProfiles returns a snapshot of every KindOp class, registration order.
func OpProfiles() []OpProfile {
	var out []OpProfile
	for _, c := range Classes() {
		if c.kind != KindOp {
			continue
		}
		out = append(out, OpProfile{
			Name:      c.name,
			Pkg:       c.pkg,
			Count:     c.acquisitions.Load(),
			Contended: c.contended.Load(),
			MeanNs:    int64(c.hold.Mean()),
			P50Ns:     c.hold.Quantile(0.50),
			P90Ns:     c.hold.Quantile(0.90),
			P99Ns:     c.hold.Quantile(0.99),
			MaxNs:     c.hold.Max(),
			P50WaitNs: c.wait.Quantile(0.50),
			P90WaitNs: c.wait.Quantile(0.90),
			P99WaitNs: c.wait.Quantile(0.99),
			P50WorkNs: c.work.Quantile(0.50),
			P90WorkNs: c.work.Quantile(0.90),
			P99WorkNs: c.work.Quantile(0.99),
		})
	}
	return out
}
