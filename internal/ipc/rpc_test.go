package ipc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"machlock/internal/sched"
)

const (
	opPing = iota
	opGetName
	opShutdown
	opFail
)

func setupServer(sem Semantics) (*Server, *Port, *kobj) {
	srv := NewServer(sem)
	srv.Register(KindTask, opPing, func(ctx *Context, obj KObject, req *Message) *Message {
		if sem == Mach30 {
			obj.Release(nil) // consume the reference on success
		}
		return NewReply(req, "pong")
	})
	srv.Register(KindTask, opGetName, func(ctx *Context, obj KObject, req *Message) *Message {
		k := obj.(*kobj)
		k.Lock()
		name := k.Name()
		active := k.Active()
		k.Unlock()
		if sem == Mach30 {
			obj.Release(nil)
		}
		return NewReply(req, name, active)
	})
	srv.Register(KindTask, opFail, func(ctx *Context, obj KObject, req *Message) *Message {
		return NewErrorReply(req, errors.New("operation failed"))
	})

	port := NewPort("task-port")
	k := newKobj("task-1")
	k.TakeRef()
	port.SetKObject(KindTask, k)
	srv.Register(KindTask, opShutdown, func(ctx *Context, obj KObject, req *Message) *Message {
		won := Shutdown(port, obj.(*kobj), nil)
		if sem == Mach30 {
			obj.Release(nil)
		}
		return NewReply(req, won)
	})
	return srv, port, k
}

func TestDispatchFullSequence(t *testing.T) {
	srv, port, k := setupServer(Mach25)
	th := sched.New("t")

	req := NewMessage(port, NewPort("r"), opPing)
	replyPort := req.Reply
	reply := srv.Dispatch(th, req)
	if reply == nil || reply.Err != nil || reply.Body[0] != "pong" {
		t.Fatalf("reply = %+v", reply)
	}
	reply.Destroy()

	// Reference balance: only creator + port's kobject ref remain.
	if refsOf(k) != 2 {
		t.Fatalf("object refs after dispatch = %d, want 2", refsOf(k))
	}
	// The request's port references were released by Destroy inside
	// Dispatch; the private reply port we made has creator ref + the
	// reply message's (destroyed above), so 1.
	if refsOf(replyPort) != 1 {
		t.Fatalf("reply port refs = %d, want 1", refsOf(replyPort))
	}
	if refsOf(port) != 1 {
		t.Fatalf("dest port refs = %d, want 1", refsOf(port))
	}
	replyPort.Destroy()
	port.Destroy()
	if s := srv.Stats(); s.Dispatches != 1 || s.Failures != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDispatchMach30ConsumesOnSuccess(t *testing.T) {
	srv, port, k := setupServer(Mach30)
	th := sched.New("t")

	// Success: handler consumed the reference; dispatcher must not.
	reply := srv.Dispatch(th, NewMessage(port, nil, opPing))
	if reply != nil {
		t.Fatal("one-way ping returned a reply")
	}
	if refsOf(k) != 2 {
		t.Fatalf("refs after Mach30 success = %d, want 2", refsOf(k))
	}

	// Failure: dispatcher releases.
	r := NewPort("r")
	req := NewMessage(port, r, opFail)
	reply = srv.Dispatch(th, req)
	if reply == nil || reply.Err == nil {
		t.Fatalf("expected error reply, got %+v", reply)
	}
	reply.Destroy()
	if refsOf(k) != 2 {
		t.Fatalf("refs after Mach30 failure = %d, want 2 (dispatcher released)", refsOf(k))
	}
	r.Destroy()
	port.Destroy()
}

func TestDispatchNoHandler(t *testing.T) {
	srv, port, k := setupServer(Mach25)
	th := sched.New("t")
	r := NewPort("r")
	reply := srv.Dispatch(th, NewMessage(port, r, 999))
	if reply == nil || !errors.Is(reply.Err, ErrNoHandler) {
		t.Fatalf("reply = %+v, want ErrNoHandler", reply)
	}
	reply.Destroy()
	if refsOf(k) != 2 {
		t.Fatalf("refs leaked on no-handler path: %d", refsOf(k))
	}
	r.Destroy()
	port.Destroy()
}

func TestDispatchDeadPort(t *testing.T) {
	srv, port, _ := setupServer(Mach25)
	th := sched.New("t")
	port.TakeRef()
	port.Destroy()
	r := NewPort("r")
	reply := srv.Dispatch(th, NewMessage(port, r, opPing))
	if reply == nil || !errors.Is(reply.Err, ErrPortDead) {
		t.Fatalf("reply = %+v, want ErrPortDead", reply)
	}
	reply.Destroy()
	r.Destroy()
	port.Release(nil)
	if s := srv.Stats(); s.Failures != 1 {
		t.Fatalf("failures = %d, want 1", s.Failures)
	}
}

func TestShutdownProtocol(t *testing.T) {
	_, port, k := setupServer(Mach25)

	// Simulate the dispatcher's translation reference.
	_, obj, err := port.KObject()
	if err != nil {
		t.Fatal(err)
	}
	if refsOf(k) != 3 {
		t.Fatalf("refs = %d, want 3 (creator + port + translation)", refsOf(k))
	}

	if !Shutdown(port, obj.(*kobj), nil) {
		t.Fatal("shutdown lost the race with nobody")
	}
	// After shutdown: port translation ref released (step 2) and creation
	// ref released (step 4). Only our translation ref remains.
	if refsOf(k) != 1 {
		t.Fatalf("refs after shutdown = %d, want 1", refsOf(k))
	}
	// Translation is disabled.
	if _, _, err := port.KObject(); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("translation after shutdown = %v, want ErrNotRegistered", err)
	}
	// The structure is still usable (deactivated) while we hold our ref.
	k.Lock()
	if k.Active() {
		t.Fatal("object still active after shutdown")
	}
	k.Unlock()
	// Releasing the last reference destroys the structure.
	if !obj.Release(nil) {
		t.Fatal("final release did not destroy")
	}
	port.Destroy()
}

func TestShutdownConcurrentOneWinner(t *testing.T) {
	_, port, k := setupServer(Mach25)
	const racers = 8
	// Each racer holds a translation reference.
	objs := make([]KObject, racers)
	for i := range objs {
		_, o, err := port.KObject()
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = o
	}
	var wins int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(o KObject) {
			defer wg.Done()
			if Shutdown(port, o.(*kobj), nil) {
				mu.Lock()
				wins++
				mu.Unlock()
			}
			o.Release(nil)
		}(objs[i])
	}
	wg.Wait()
	if wins != 1 {
		t.Fatalf("shutdown winners = %d, want 1", wins)
	}
	if !k.Destroyed() {
		t.Fatal("object not destroyed after all references released")
	}
	port.Destroy()
}

func TestServeCallRoundTrip(t *testing.T) {
	srv, port, _ := setupServer(Mach25)
	port.TakeRef() // server loop's reference
	server := sched.Go("server", func(self *sched.Thread) {
		srv.Serve(self, port)
		port.Release(nil)
	})

	client := sched.Go("client", func(self *sched.Thread) {
		for i := 0; i < 20; i++ {
			resp, err := Call(self, port, opGetName)
			if err != nil {
				t.Errorf("Call: %v", err)
				return
			}
			if resp.Err != nil || resp.Body[0] != "task-1" || resp.Body[1] != true {
				t.Errorf("resp = %+v", resp)
			}
			resp.Destroy()
		}
	})
	client.Join()
	port.Destroy() // stops the server loop
	server.Join()
}

func TestCallToDeadPortFails(t *testing.T) {
	p := NewPort("p")
	p.TakeRef()
	p.Destroy()
	th := sched.New("t")
	if _, err := Call(th, p, opPing); !errors.Is(err, ErrPortDead) {
		t.Fatalf("Call = %v, want ErrPortDead", err)
	}
	p.Release(nil)
}

// TestCallFailsWhenQueuedRequestsPortDies: a request still queued when
// its destination is destroyed is answered with ErrPortDead, the way
// Mach's send-once notification tells the sender, instead of leaving the
// caller blocked on its reply port forever.
func TestCallFailsWhenQueuedRequestsPortDies(t *testing.T) {
	p := NewPort("unserved")
	p.TakeRef() // the caller's reference
	type result struct {
		resp *Message
		err  error
	}
	done := make(chan result, 1)
	sched.Go("caller", func(self *sched.Thread) {
		resp, err := Call(self, p, opPing)
		done <- result{resp, err}
	})
	for p.QueueLen() == 0 {
		time.Sleep(time.Millisecond)
	}
	p.Destroy()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("Call = %v, want an error reply", r.err)
		}
		if !errors.Is(r.resp.Err, ErrPortDead) {
			t.Fatalf("reply error = %v, want ErrPortDead", r.resp.Err)
		}
		r.resp.Destroy()
	case <-time.After(5 * time.Second):
		t.Fatal("caller still blocked after its destination was destroyed")
	}
	if refsOf(p) != 1 {
		t.Fatalf("port refs = %d, want the caller's 1 (drained request released)", refsOf(p))
	}
	p.Release(nil)
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNone: "none", KindTask: "task", KindThread: "thread",
		KindMemObj: "memobj", KindPager: "pager", KindReply: "reply",
		KindCustom: "custom", Kind(42): "kind(42)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

// TestOperationsRaceWithTermination is the paper's core safety claim (E10):
// a flood of kernel operations racing with object termination must never
// touch a destroyed structure — every touch is covered by a reference.
// Kept short: real concurrency under -race is the smoke layer; the
// deterministic schedule-exploration twin is
// TestSimOperationsRaceWithTermination in sim_test.go.
func TestOperationsRaceWithTermination(t *testing.T) {
	srv, port, k := setupServer(Mach25)
	port.TakeRef()
	server := sched.Go("server", func(self *sched.Thread) {
		srv.Serve(self, port)
		port.Release(nil)
	})

	var clients []*sched.Thread
	for i := 0; i < 4; i++ {
		clients = append(clients, sched.Go("client", func(self *sched.Thread) {
			for j := 0; j < 15; j++ {
				resp, err := Call(self, port, opGetName)
				if err != nil {
					return // port died; fine
				}
				resp.Destroy()
			}
		}))
	}
	terminator := sched.Go("terminator", func(self *sched.Thread) {
		resp, err := Call(self, port, opShutdown)
		if err == nil {
			resp.Destroy()
		}
	})
	terminator.Join()
	for _, c := range clients {
		c.Join()
	}
	port.Destroy()
	server.Join()
	_ = k
}
