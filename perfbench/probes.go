package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"machlock/internal/core/cxlock"
	"machlock/internal/core/object"
	"machlock/internal/core/splock"
	"machlock/internal/ipc"
	"machlock/internal/mig"
	"machlock/internal/monitor"
	"machlock/internal/netmsg"
	"machlock/internal/sched"
	"machlock/internal/trace"
)

// Classes for the probes' own locks and object, so they take the same
// traced paths a classed kernel lock takes while the monitor runs.
var (
	classSpin = trace.NewClass("perfbench", "perfbench.spin", trace.KindSpin)
	classRW   = trace.NewClass("perfbench", "perfbench.rw", trace.KindComplex)
	classObj  = trace.NewClass("perfbench", "perfbench.obj", trace.KindObject)
)

// Operations of the probes' echo server.
const (
	opEcho    = 1 // ipc: reply with the request's body
	opMigEcho = 2 // mig: reply with the decoded arguments
)

// echoArgs has the shape of machd.LookupArgs, so an echo moves the bytes
// a lookup moves.
type echoArgs struct {
	Slot int
	Name uint32
}

type echoObj struct{ object.Object }

// echoServer is a no-op ipc.Server draining its own port on one kernel
// thread.
type echoServer struct {
	port   *ipc.Port
	thread *sched.Thread
}

func startEcho() *echoServer {
	obj := &echoObj{}
	obj.Init("perfbench.echo")
	port := ipc.NewPort("perfbench.echo")
	obj.TakeRef() // the port's kernel-object pointer
	port.SetKObject(ipc.KindCustom, obj)

	srv := ipc.NewServer(ipc.Mach25)
	srv.Register(ipc.KindCustom, opEcho, func(ctx *ipc.Context, obj ipc.KObject, req *ipc.Message) *ipc.Message {
		return ipc.NewReply(req, req.Body...)
	})
	iface := mig.NewInterface(ipc.KindCustom)
	mig.Define(iface, opMigEcho, "echo", func(ctx *ipc.Context, obj ipc.KObject, a *echoArgs) (*echoArgs, error) {
		return a, nil
	})
	iface.Install(srv)

	port.TakeRef() // the serving thread's reference
	th := sched.Go("perfbench-echo", func(t *sched.Thread) {
		srv.Serve(t, port)
		port.Release(nil)
	})
	return &echoServer{port: port, thread: th}
}

func (e *echoServer) stop() {
	e.port.Destroy()
	e.thread.Join()
}

// ipcEcho sends payload through ipc.Call to port and checks the echo.
func ipcEcho(t *sched.Thread, port *ipc.Port, payload []byte) error {
	resp, err := ipc.Call(t, port, opEcho, payload)
	if err != nil {
		return err
	}
	defer resp.Destroy()
	if resp.Err != nil {
		return resp.Err
	}
	if len(resp.Body) != 1 {
		return fmt.Errorf("echo reply has %d items", len(resp.Body))
	}
	if b, ok := resp.Body[0].([]byte); !ok || !bytes.Equal(b, payload) {
		return fmt.Errorf("echo reply differs from the request")
	}
	return nil
}

func migEcho(t *sched.Thread, port *ipc.Port, args *echoArgs) error {
	rep, err := mig.Call[echoArgs, echoArgs](t, port, opMigEcho, args)
	if err != nil {
		return err
	}
	if *rep != *args {
		return fmt.Errorf("mig echo returned %+v for %+v", *rep, *args)
	}
	return nil
}

// timeEach times n calls of op, recording each as a span named name, and
// returns the durations in ns.
func timeEach(rec *recorder, name string, n int, op func() error) ([]int64, error) {
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := op()
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		id := rec.id()
		rec.add(span{ID: id, Req: id, Name: name, Start: rec.ns(t0), End: rec.ns(t1)})
		out = append(out, int64(t1.Sub(t0)))
	}
	return out, nil
}

// nsPerOp times batches of calls of op, recording each batch as a span
// named name, and returns the median batch's ns per call.
func nsPerOp(rec *recorder, name string, batches, batch int, op func() error) (float64, error) {
	var per []float64
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		t1 := time.Now()
		id := rec.id()
		rec.add(span{ID: id, Req: id, Name: name, Start: rec.ns(t0), End: rec.ns(t1)})
		per = append(per, float64(t1.Sub(t0))/float64(batch))
	}
	return median(per), nil
}

// probeCounts sizes the isolated probes; scaled down for runs shorter
// than 20 s.
type probeCounts struct {
	calls   int // timed RPC-shaped calls per probe
	batches int // batches per ns-scale probe
	batch   int // calls per batch
	spawns  int
	faults  int
}

func countsFor(scale float64) probeCounts {
	n := func(full int) int {
		if v := int(float64(full) * scale); v > 10 {
			return v
		}
		return 10
	}
	return probeCounts{calls: n(2000), batches: 9, batch: n(20000), spawns: n(300), faults: n(4000)}
}

// runProbes measures the layers under the RPC path one at a time, each
// around its public functions, while the daemon idles with its monitor
// running as machd ships. Results go into m; spans into rec.
func runProbes(pc probeCounts, sh *shadow, seed int64, rec *recorder, m metrics) error {
	t := sched.New("perfbench-probe")
	echo := startEcho()
	defer echo.stop()

	args := &echoArgs{Slot: 7, Name: 3}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(args); err != nil {
		return fmt.Errorf("encode echo args: %w", err)
	}
	payload := buf.Bytes() // the bytes mig.Call sends for args

	// ipc: an in-process call to a no-op server.
	lat, err := timeEach(rec, "ipc.call", pc.calls, func() error { return ipcEcho(t, echo.port, payload) })
	if err != nil {
		return err
	}
	m.set("ipc.call_p50_us", quantile(lat, 0.5)/1e3)

	// mig: the same call made through the stubs, paired with the bare
	// ipc.Call of the bytes they send; the bare call is the mig span's
	// replayed child, so the mig span's self time is the stubs' cost.
	for i := 0; i < pc.calls; i++ {
		t0 := time.Now()
		if err := migEcho(t, echo.port, args); err != nil {
			return fmt.Errorf("mig echo: %w", err)
		}
		t1 := time.Now()
		if err := ipcEcho(t, echo.port, payload); err != nil {
			return fmt.Errorf("ipc echo: %w", err)
		}
		t2 := time.Now()
		id, child := rec.id(), rec.id()
		rec.add(span{ID: id, Req: id, Name: "mig.call", Start: rec.ns(t0), End: rec.ns(t1)})
		rec.add(span{ID: child, Parent: id, Req: id, Name: "mig.ipc_call", Start: rec.ns(t1), End: rec.ns(t2)})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pc.calls; i++ {
		if err := migEcho(t, echo.port, args); err != nil {
			return fmt.Errorf("mig echo: %w", err)
		}
	}
	runtime.ReadMemStats(&after)
	m.set("mig.alloc_kb_per_call", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(pc.calls))

	// netmsg: the same ipc.Call through a proxy over loopback TCP to the
	// echo server exported on the other end.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	exported := make(chan struct{})
	go func() {
		defer close(exported)
		netmsg.Export(l, echo.port)
	}()
	proxy, err := netmsg.Proxy(l.Addr().String(), "perfbench.echo")
	if err == nil {
		lat, err = timeEach(rec, "netmsg.echo", pc.calls, func() error { return ipcEcho(t, proxy, payload) })
		proxy.Destroy()
	}
	l.Close()
	<-exported
	if err != nil {
		return err
	}
	m.set("netmsg.echo_p50_us", quantile(lat, 0.5)/1e3)

	// ipc ports and name spaces.
	port := ipc.NewPort("perfbench.probe")
	defer port.Destroy()
	ns, err := nsPerOp(rec, "ipc.port_new_destroy", pc.batches, pc.batch, func() error {
		ipc.NewPort("perfbench.probe").Destroy()
		return nil
	})
	if err != nil {
		return err
	}
	m.set("ipc.port_new_destroy_ns", ns)
	ns, err = nsPerOp(rec, "ipc.send_receive", pc.batches, pc.batch, func() error {
		if err := port.Send(ipc.NewMessage(port, nil, 0)); err != nil {
			return err
		}
		msg, err := port.TryReceive()
		if err != nil {
			return err
		}
		msg.Destroy()
		return nil
	})
	if err != nil {
		return err
	}
	m.set("ipc.send_receive_ns", ns)

	space := ipc.NewSpace()
	defer space.DestroyAll(t)
	name := space.Insert(t, port)
	ns, err = nsPerOp(rec, "ipc.space_translate", pc.batches, pc.batch, func() error {
		p, err := space.Translate(t, name)
		if err != nil {
			return err
		}
		p.Release(nil)
		return nil
	})
	if err != nil {
		return err
	}
	m.set("ipc.space_translate_ns", ns)
	ns, err = nsPerOp(rec, "ipc.space_insert_remove", pc.batches, pc.batch, func() error {
		return space.Remove(t, space.Insert(t, port))
	})
	if err != nil {
		return err
	}
	m.set("ipc.space_insert_remove_ns", ns)

	// sched: a send to a thread parked in Receive, until Receive returns.
	lat, err = wakeups(rec, pc.calls)
	if err != nil {
		return err
	}
	m.set("sched.wakeup_p50_us", quantile(lat, 0.5)/1e3)

	// Lock and reference fast paths, uncontended.
	spin := splock.NewWith(splock.Opts{Name: "perfbench.spin", Class: classSpin})
	ns, err = nsPerOp(rec, "splock.lock_unlock", pc.batches, pc.batch, func() error {
		spin.Lock()
		spin.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	m.set("splock.lock_unlock_ns", ns)
	rw := cxlock.NewWith(cxlock.Options{ReaderBias: true, Name: "perfbench.rw", Class: classRW})
	ns, err = nsPerOp(rec, "cxlock.read_done", pc.batches, pc.batch, func() error {
		rw.Read(t)
		rw.Done(t)
		return nil
	})
	if err != nil {
		return err
	}
	m.set("cxlock.read_done_ns", ns)
	ns, err = nsPerOp(rec, "cxlock.write_done", pc.batches, pc.batch, func() error {
		rw.Write(t)
		rw.Done(t)
		return nil
	})
	if err != nil {
		return err
	}
	m.set("cxlock.write_done_ns", ns)
	var obj object.Object
	obj.Init("perfbench.obj")
	obj.SetClass(classObj)
	ns, err = nsPerOp(rec, "object.ref", pc.batches, pc.batch, func() error {
		obj.TakeRef()
		obj.Release(nil)
		return nil
	})
	if err != nil {
		return err
	}
	m.set("object.ref_ns", ns)

	// kern and vm on the benchmark's own population.
	task := sh.tasks[0]
	ns, err = nsPerOp(rec, "kern.translate", pc.batches, pc.batch, func() error {
		p, err := task.TranslatePort(t, 1)
		if err != nil {
			return err
		}
		p.Release(nil)
		return nil
	})
	if err != nil {
		return err
	}
	m.set("kern.translate_ns", ns)

	for i := 0; i < pc.spawns; i++ {
		t0 := time.Now()
		term, err := sh.spawn(t)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("kern.spawn: %w", err)
		}
		id, child := rec.id(), rec.id()
		rec.add(span{ID: id, Req: id, Name: "kern.spawn", Start: rec.ns(t0), End: rec.ns(t1)})
		rec.add(span{ID: child, Parent: id, Req: id, Name: "kern.terminate", Start: rec.ns(term[0]), End: rec.ns(term[1])})
	}
	m.set("kern.spawn_p50_us", quantile(durOf(rec.spans, "kern.spawn"), 0.5)/1e3)
	m.set("kern.terminate_p50_us", quantile(durOf(rec.spans, "kern.terminate"), 0.5)/1e3)

	// Faults over the whole population: the mapping outgrows the pool, so
	// resident hits, fills and shortage waits on pageout all occur.
	rng := rand.New(rand.NewSource(seed))
	fault := func() error {
		return sh.tasks[rng.Intn(worldTasks)].Map().Fault(t, uint64(rng.Intn(vmPages)), false)
	}
	for i := 0; i < worldTasks*vmPages; i++ {
		if err := fault(); err != nil {
			return fmt.Errorf("vm.fault: %w", err)
		}
	}
	lat, err = timeEach(rec, "vm.fault", pc.faults, fault)
	if err != nil {
		return err
	}
	m.set("vm.fault_p50_us", quantile(lat, 0.5)/1e3)
	return nil
}

// wakeups times n sends to a port whose receiver is parked in Receive,
// from the send until Receive returns on the receiving thread.
func wakeups(rec *recorder, n int) ([]int64, error) {
	port := ipc.NewPort("perfbench.wakeup")
	got := make(chan time.Time)
	port.TakeRef() // the receiver's reference
	rt := sched.Go("perfbench-wakeup", func(t *sched.Thread) {
		defer port.Release(nil)
		for {
			msg, err := port.Receive(t)
			if err != nil {
				return
			}
			now := time.Now()
			msg.Destroy()
			got <- now
		}
	})
	defer rt.Join()
	defer port.Destroy()

	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		// Wait until the receiver has parked for the i+1-th time.
		deadline := time.Now().Add(time.Second)
		for rt.Blocks() <= int64(i) {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("sched.wakeup: receiver never parked")
			}
			runtime.Gosched()
		}
		t0 := time.Now()
		if err := port.Send(ipc.NewMessage(port, nil, 0)); err != nil {
			return nil, fmt.Errorf("sched.wakeup: %w", err)
		}
		t1 := <-got
		id := rec.id()
		rec.add(span{ID: id, Req: id, Name: "sched.wakeup", Start: rec.ns(t0), End: rec.ns(t1)})
		out = append(out, int64(t1.Sub(t0)))
	}
	return out, nil
}

// traceGate measures what the monitor's instrumentation adds to an
// uncontended classed spin lock: the lock with monitor.Start running minus
// the same lock with no monitor. Run it while no daemon (and so no other
// monitor) is running.
func traceGate(pc probeCounts, rec *recorder) (float64, error) {
	spin := splock.NewWith(splock.Opts{Name: "perfbench.spin", Class: classSpin})
	op := func() error {
		spin.Lock()
		spin.Unlock()
		return nil
	}
	off, err := nsPerOp(rec, "trace.gate_off", pc.batches, pc.batch, op)
	if err != nil {
		return 0, err
	}
	mon := monitor.New(monitor.Config{})
	mon.Start()
	on, err := nsPerOp(rec, "trace.gate_on", pc.batches, pc.batch, op)
	mon.Stop()
	return on - off, err
}
