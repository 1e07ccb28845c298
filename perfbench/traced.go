package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"machlock/internal/ipc"
	"machlock/internal/netmsg"
	"machlock/internal/trace"
)

// counters are the process-wide counts the traced run divides by the
// requests served between two readings.
type counters struct {
	frames    int64  // netmsg frames forwarded and returned
	portAcq   int64  // ipc.port lock acquisitions
	contended int64  // contended acquisitions over every lock class
	gc        uint32 // completed GC cycles
}

func readCounters() counters {
	ns := netmsg.GlobalStats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{frames: ns.RequestsForwarded + ns.RepliesReturned, gc: ms.NumGC}
	for _, p := range trace.Ranked() {
		if p.Pkg == "ipc" && p.Name == "ipc.port" {
			c.portAcq = p.Acquisitions
		}
		c.contended += p.Contended
	}
	return c
}

// paired runs client c alone in a closed loop. Each generated request is
// served three times, each time with one more layer removed: through the
// proxy (client.rpc), in-process through mig.Call on the daemon's service
// port (machd.dispatch, which drops netmsg and TCP), and as direct kernel
// calls on the shadow population (kern.handler, which drops mig and ipc
// dispatch). Each is recorded as the replayed child of the one before.
func paired(c *client, svc *ipc.Port, sh *shadow, d time.Duration, rec *recorder, tl *tally) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		r := c.wl.next(c.rng, c.id)
		t0 := time.Now()
		c.do(c.proxy, r, tl)
		t1 := time.Now()
		c.do(svc, r, tl)
		t2 := time.Now()
		err := sh.replay(c.self, r)
		t3 := time.Now()
		tl.attempted++
		if err != nil {
			tl.failed++
		}
		req, disp, kern := rec.id(), rec.id(), rec.id()
		rec.add(span{ID: req, Req: req, Name: "client.rpc", Start: rec.ns(t0), End: rec.ns(t1)})
		rec.add(span{ID: disp, Parent: req, Req: req, Name: "machd.dispatch", Start: rec.ns(t1), End: rec.ns(t2)})
		rec.add(span{ID: kern, Parent: disp, Req: req, Name: "kern.handler", Start: rec.ns(t2), End: rec.ns(t3)})
	}
}

// traceRun is the state of a traced run between its phases.
type traceRun struct {
	base  time.Time
	recs  []*recorder
	m     metrics
	tl    tally
	pc    probeCounts
	trRPS float64 // saturation throughput with spans recorded
	unRPS float64 // the same without
}

// runTraced measures the per-layer metrics while the rig is up: counts
// over an untraced saturation phase, the tracing overhead, generator
// lateness at the fixed rate, the paired layer split, and the isolated
// probes. finish completes the run once the daemon has stopped.
func runTraced(rg *rig, seed int64, seconds time.Duration) (*traceRun, error) {
	part := func(f float64) time.Duration { return time.Duration(f * float64(seconds)) }
	tr := &traceRun{base: time.Now(), m: metrics{}}
	tr.pc = countsFor(math.Min(1, seconds.Seconds()/20))

	// Counts per request over an untraced saturation phase.
	st0, err := rg.stat()
	if err != nil {
		return nil, err
	}
	c0 := readCounters()
	sat := saturate(rg.clients, part(0.2), nil)
	c1 := readCounters()
	st1, err := rg.stat()
	if err != nil {
		return nil, err
	}
	tr.tl.add(sat.tally)
	perReq := func(d int64) float64 { return float64(d) / float64(sat.done) }
	tr.m.set("netmsg.frames_per_req", perReq(c1.frames-c0.frames))
	tr.m.set("ipc.port_acq_per_req", perReq(c1.portAcq-c0.portAcq))
	tr.m.set("lock.contended_per_kreq", 1000*perReq(c1.contended-c0.contended))
	tr.m.set("gc.cycles_per_kreq", 1000*perReq(int64(c1.gc-c0.gc)))
	tr.m.set("vm.reclaims_per_kreq", 1000*perReq(st1.Reclaims-st0.Reclaims))
	tr.unRPS = sat.rps

	// The same phase with a span recorded around every request.
	satRecs := make([]*recorder, len(rg.clients))
	for i := range satRecs {
		satRecs[i] = newRecorder(tr.base, uint64(1+i))
	}
	tr.recs = append(tr.recs, satRecs...)
	traced := saturate(rg.clients, part(0.2), satRecs)
	tr.tl.add(traced.tally)
	tr.trRPS = traced.rps

	// Generator lateness at the workload's fixed rate.
	fx := fixedRate(rg.clients, rg.clients[0].wl.rate, part(0.15))
	tr.tl.add(fx.tally)
	tr.m.set("client.late_p99_us", quantile(fx.late, 0.99)/1e3)

	// The paired layer split and the probes, on the benchmark's own
	// population.
	sh, err := newShadow(rg.clients[0].self)
	if err != nil {
		return nil, err
	}
	defer sh.stop()
	pairRec := newRecorder(tr.base, 8)
	tr.recs = append(tr.recs, pairRec)
	paired(rg.clients[0], rg.d.World().ServicePort(), sh, part(0.2), pairRec, &tr.tl)

	probeRec := newRecorder(tr.base, 9)
	tr.recs = append(tr.recs, probeRec)
	if err := runProbes(tr.pc, sh, seed, probeRec, tr.m); err != nil {
		return nil, err
	}
	return tr, nil
}

// finish measures the trace gate with no daemon running, writes the
// span dump, and derives the layer self times from it.
func (tr *traceRun) finish(spanPath string, out io.Writer) error {
	gateRec := newRecorder(tr.base, 10)
	tr.recs = append(tr.recs, gateRec)
	gate, err := traceGate(tr.pc, gateRec)
	if err != nil {
		return err
	}
	tr.m.set("trace.gate_ns", gate)

	var spans []span
	for _, r := range tr.recs {
		spans = append(spans, r.spans...)
	}
	if err := writeSpans(spanPath, spans); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	self := selfTimes(spans)
	p50 := func(xs []int64) float64 { return quantile(xs, 0.5) / 1e3 }

	rpcs := durOf(spans, "client.rpc")
	client := p50(rpcs)
	netSelf := p50(selfOf(spans, self, "client.rpc"))
	dispSelf := p50(selfOf(spans, self, "machd.dispatch"))
	handler := p50(selfOf(spans, self, "kern.handler"))
	tr.m.set("client.rpc_p50_us", client)
	tr.m.set("netmsg.self_p50_us", netSelf)
	tr.m.set("machd.dispatch_p50_us", p50(durOf(spans, "machd.dispatch")))
	tr.m.set("machd.dispatch_self_p50_us", dispSelf)
	tr.m.set("kern.handler_p50_us", handler)
	tr.m.set("bench.layer_sum_ratio", (netSelf+dispSelf+handler)/client)
	tr.m.set("mig.self_p50_us", p50(selfOf(spans, self, "mig.call")))

	// The overhead of recording spans: the traced saturation phase's
	// throughput against the untraced phase's.
	tr.m.set("bench.trace_overhead_pct", 100*(tr.unRPS-tr.trRPS)/tr.unRPS)

	fmt.Fprintf(out, "layer self times (p50 over %d paired requests, us): netmsg+tcp %.1f + mig/ipc dispatch %.1f + handler %.1f = %.1f; client median %.1f (ratio %.3f)\n",
		len(rpcs), netSelf, dispSelf, handler, netSelf+dispSelf+handler, client,
		(netSelf+dispSelf+handler)/client)
	fmt.Fprintf(out, "tracing overhead: %.0f req/s untraced, %.0f req/s traced (%d sat.rpc spans), %.2f%%\n",
		tr.unRPS, tr.trRPS, len(durOf(spans, "sat.rpc")), 100*(tr.unRPS-tr.trRPS)/tr.unRPS)
	fmt.Fprintf(out, "span dump: %d spans in %s\n", len(spans), spanPath)
	if math.IsNaN(client) {
		return fmt.Errorf("no paired requests completed")
	}
	return nil
}
