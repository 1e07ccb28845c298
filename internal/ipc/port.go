// Package ipc implements the communication substrate of the Mach kernel
// that the paper's reference-counting protocol is exercised through: ports,
// messages, per-task port name spaces, and the kernel RPC dispatch path of
// Section 10.
//
// "Kernel abstractions are exported to user tasks by ports; if the
// abstraction is not a port, then the port data structure contains a
// pointer to the actual object. Operations on objects are invoked by
// sending messages to the corresponding ports."
//
// Every pointer between structures here carries a counted reference,
// following Section 8 exactly: a port's kobject pointer holds a reference
// to the kernel object; a name-space entry holds a reference to its port; a
// queued message holds a reference to its destination and reply ports.
package ipc

import (
	"errors"
	"fmt"

	"machlock/internal/core/object"
	"machlock/internal/sched"
	"machlock/internal/trace"
)

// classPort aggregates every port's lock, reference, and deactivation
// traffic under one observability class.
var classPort = trace.NewClass("ipc", "ipc.port", trace.KindObject)

// opSend spans one message send end to end (see trace.BeginSpan); used by
// SendFrom, the thread-identified send the RPC paths go through.
var opSend = trace.NewOp("ipc", "op.send")

// Kind identifies the kernel object class behind a port, used by the RPC
// dispatcher to pick a handler table.
type Kind int

// Kernel object kinds.
const (
	KindNone   Kind = iota
	KindTask        // task self port
	KindThread      // thread self port
	KindMemObj      // memory object name port
	KindPager       // memory object pager port
	KindReply       // reply port for RPCs
	KindCustom      // anything a test or example registers
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindTask:
		return "task"
	case KindThread:
		return "thread"
	case KindMemObj:
		return "memobj"
	case KindPager:
		return "pager"
	case KindReply:
		return "reply"
	case KindCustom:
		return "custom"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Errors returned by port operations.
var (
	ErrPortDead      = errors.New("ipc: port is dead")
	ErrQueueFull     = errors.New("ipc: message queue full")
	ErrNoReceiver    = errors.New("ipc: receive on port with no messages (try)")
	ErrNotRegistered = errors.New("ipc: no kernel object registered on port")
)

// KObject is what a port can point to: a kernel object participating in
// the reference protocol. object.Object satisfies it, so any type embedding
// the object base does too.
type KObject interface {
	TakeRef()
	Release(destroy func()) bool
}

// DefaultQueueLimit is the per-port message queue limit.
const DefaultQueueLimit = 64

// Port is a protected communication channel with exactly one receiver and
// one or more senders. It is itself a deactivatable, refcounted kernel
// object: its Object lock protects the queue and the kobject pointer, and
// "deactivated" is the port-dead state.
type Port struct {
	object.Object

	msgs     []*Message
	limit    int
	kobjKind Kind
	kobj     KObject
	pset     *PortSet // the containing port set, if any (counted both ways)
}

// NewPort creates an active port with one (creator's) reference.
func NewPort(name string) *Port {
	p := &Port{limit: DefaultQueueLimit}
	p.Init(name)
	p.SetClass(classPort)
	return p
}

// SetQueueLimit changes the port's queue limit.
func (p *Port) SetQueueLimit(n int) {
	p.Lock()
	p.limit = n
	p.Unlock()
}

// SetKObject registers the kernel object this port represents, donating
// one reference on obj to the port (the port's pointer is a counted
// reference, per Section 8 "Inter-object pointers"). The caller must have
// cloned that reference before calling.
func (p *Port) SetKObject(kind Kind, obj KObject) {
	p.Lock()
	if p.kobj != nil {
		p.Unlock()
		panic("ipc: port already has a kernel object")
	}
	p.kobjKind = kind
	p.kobj = obj
	p.Unlock()
}

// KObject translates the port to its kernel object, cloning a reference to
// the object before returning it — step 2 of the Section 10 kernel
// operation sequence. The translation fails if the port is dead or carries
// no object.
func (p *Port) KObject() (Kind, KObject, error) {
	p.Lock()
	defer p.Unlock()
	if err := p.CheckActive(); err != nil {
		return KindNone, nil, ErrPortDead
	}
	if p.kobj == nil {
		return KindNone, nil, ErrNotRegistered
	}
	// The port's own reference to the object covers this clone: the
	// object cannot vanish while the port points at it.
	obj := p.kobj
	kind := p.kobjKind
	obj.TakeRef()
	return kind, obj, nil
}

// StripKObject removes the object pointer from the port and returns the
// object WITHOUT releasing the port's reference to it — the caller now owns
// that reference and must release it (shutdown step 2: "remove the object
// pointer and reference from the port... This disables port to object
// translation").
func (p *Port) StripKObject() (KObject, bool) {
	p.Lock()
	obj := p.kobj
	p.kobj = nil
	p.kobjKind = KindNone
	p.Unlock()
	return obj, obj != nil
}

// Send enqueues a message on the port. The message's Dest field must
// already reference this port; the queue entry takes over the caller's
// reference to the message's ports. Send fails on a dead port, in which
// case the caller still owns the message (and must destroy it).
func (p *Port) Send(msg *Message) error {
	p.Lock()
	set := p.pset
	defer func() {
		wake := sched.Event(&p.msgs)
		p.Unlock()
		sched.ThreadWakeup(wake)
		if set != nil {
			// A receiver may be parked on the containing port set.
			sched.ThreadWakeup(sched.Event(set))
		}
	}()
	if err := p.CheckActive(); err != nil {
		return ErrPortDead
	}
	if len(p.msgs) >= p.limit {
		return ErrQueueFull
	}
	p.msgs = append(p.msgs, msg)
	return nil
}

// SendFrom is Send with a thread identity: the enqueue is bracketed by an
// operation span, so its latency — and any lock wait inside it — lands in
// the ipc/op.send profile and on t's timeline track. Semantics are
// otherwise identical to Send.
func (p *Port) SendFrom(t *sched.Thread, msg *Message) error {
	sp := trace.BeginSpan(t, opSend)
	err := p.Send(msg)
	sp.End()
	return err
}

// Receive dequeues the next message, blocking the calling thread until one
// arrives or the port dies. The returned message carries references to its
// ports; the receiver consumes them via msg.Destroy.
func (p *Port) Receive(t *sched.Thread) (*Message, error) {
	for {
		p.Lock()
		if len(p.msgs) > 0 {
			msg := p.msgs[0]
			p.msgs = p.msgs[1:]
			p.Unlock()
			return msg, nil
		}
		if err := p.CheckActive(); err != nil {
			p.Unlock()
			return nil, ErrPortDead
		}
		// Release the lock and wait for a send, atomically (thread_sleep).
		sched.ThreadSleep(t, sched.Event(&p.msgs), func() { p.Unlock() })
	}
}

// TryReceive dequeues a message without blocking.
func (p *Port) TryReceive() (*Message, error) {
	p.Lock()
	defer p.Unlock()
	if len(p.msgs) > 0 {
		msg := p.msgs[0]
		p.msgs = p.msgs[1:]
		return msg, nil
	}
	if err := p.CheckActive(); err != nil {
		return nil, ErrPortDead
	}
	return nil, ErrNoReceiver
}

// QueueLen returns the number of queued messages.
func (p *Port) QueueLen() int {
	p.Lock()
	defer p.Unlock()
	return len(p.msgs)
}

// Destroy deactivates the port (making sends and translations fail), wakes
// any blocked receivers, drains and destroys queued messages (answering
// each one that names a reply port with ErrPortDead), releases the
// port's reference to its kernel object (if any), and drops the caller's
// reference. Remaining references keep the bare structure alive; the last
// release frees it.
func (p *Port) Destroy() {
	p.Lock()
	first := p.Deactivate()
	var drained []*Message
	var obj KObject
	var set *PortSet
	if first {
		drained = p.msgs
		p.msgs = nil
		obj = p.kobj
		p.kobj = nil
		p.kobjKind = KindNone
		set = p.pset
	}
	p.Unlock()
	if first {
		if set != nil {
			// Detach from the containing set with the canonical
			// set-then-port ordering; Remove re-validates membership.
			_ = set.Remove(p)
		}
		sched.ThreadWakeup(sched.Event(&p.msgs))
		for _, m := range drained {
			// Like Mach's send-once notification: a queued request's
			// sender learns the port died instead of waiting forever.
			if reply := NewErrorReply(m, ErrPortDead); reply != nil {
				if err := reply.Dest.Send(reply); err != nil {
					reply.Destroy()
				}
			}
			m.Destroy()
		}
		if obj != nil {
			obj.Release(nil)
		}
	}
	p.Release(nil)
}
