package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"machlock/internal/machd"
	"machlock/internal/mig"
	"machlock/internal/netmsg"
	"machlock/internal/sched"
)

// nClients is the load's width: two client threads, each on its own
// connection (the host has two CPUs).
const nClients = 2

// rig is a running daemon with its connected clients.
type rig struct {
	d       *machd.Daemon
	clients []*client
	spawns  atomic.Int64 // every spawn sent to this daemon
	warm    tally        // warm-up outcomes
	setup   time.Duration
}

// startRig starts machd in-process, dials it over loopback TCP with one
// netmsg proxy per client, checks the world's shape over the wire, and
// warms up with warmup generated requests per client. The time all of
// that takes is the rig's set-up time. Every rig started from one seed
// receives the same requests.
func startRig(wl *workload, seed int64, warmup int) (*rig, error) {
	t0 := time.Now()
	d, err := machd.Start(machd.Options{World: machd.WorldConfig{
		Tasks: worldTasks, PortsPerTask: portsPerTask, VMPages: vmPages,
	}})
	if err != nil {
		return nil, fmt.Errorf("start machd: %w", err)
	}
	rg := &rig{d: d}
	for i := 0; i < nClients; i++ {
		p, err := netmsg.Proxy(d.RPCAddr(), fmt.Sprintf("perfbench%d", i))
		if err != nil {
			rg.stop()
			return nil, fmt.Errorf("dial machd: %w", err)
		}
		rg.clients = append(rg.clients, &client{
			id:     i,
			self:   sched.New(fmt.Sprintf("perfbench-client%d", i)),
			proxy:  p,
			rng:    rand.New(rand.NewSource(seed*nClients + int64(i))),
			wl:     wl,
			spawns: &rg.spawns,
		})
	}
	st, err := rg.stat()
	if err != nil {
		rg.stop()
		return nil, err
	}
	if st.Tasks != worldTasks || st.PortsPerTask != portsPerTask || st.VMPages != vmPages {
		rg.stop()
		return nil, fmt.Errorf("machd world is %d tasks × %d ports × %d pages, want %d × %d × %d",
			st.Tasks, st.PortsPerTask, st.VMPages, worldTasks, portsPerTask, vmPages)
	}
	tallies := make([]tally, nClients)
	var wg sync.WaitGroup
	for i, c := range rg.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < warmup; n++ {
				c.do(c.proxy, wl.next(c.rng, c.id), &tallies[i])
			}
		}()
	}
	wg.Wait()
	for _, t := range tallies {
		rg.warm.add(t)
	}
	rg.setup = time.Since(t0)
	return rg, nil
}

// stat asks the daemon for its shape and counters over client 0's
// connection.
func (rg *rig) stat() (*machd.StatReply, error) {
	c := rg.clients[0]
	st, err := mig.Call[machd.StatArgs, machd.StatReply](c.self, c.proxy, machd.OpStat, &machd.StatArgs{})
	if err != nil {
		return nil, fmt.Errorf("stat: %w", err)
	}
	return st, nil
}

// stop closes the connections and stops the daemon.
func (rg *rig) stop() {
	for _, c := range rg.clients {
		c.proxy.Destroy()
	}
	rg.d.Stop()
}

// mark is a reading of the process counters at a window boundary.
type mark struct {
	at    time.Duration // since the phase started
	cpu   time.Duration // process user+sys CPU
	alloc uint64        // bytes allocated on the Go heap, ever
}

func takeMark(start time.Time, mem bool) mark {
	m := mark{cpu: cpuTime()}
	if mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.alloc = ms.TotalAlloc
	}
	m.at = time.Since(start)
	return m
}

// cpuTime returns the process's user plus system CPU time: the daemon's
// and the client stubs' together, since they share the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windowMarks splits a phase of length d that began at start into windows
// of about a second and takes a mark at every window's end (the first
// mark is taken by the caller). Throughput, allocation and CPU per
// request are medians over a phase's windows, so a stall from the
// hypervisor or a neighbour on a shared host moves one window, not the
// figure.
func windowMarks(first mark, start time.Time, d time.Duration, mem bool) []mark {
	n := int(math.Round(d.Seconds()))
	if n < 1 {
		n = 1
	}
	marks := []mark{first}
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(i) / time.Duration(n))))
		marks = append(marks, takeMark(start, mem))
	}
	return marks
}

// perWindow applies f to each window's bounding marks and the number of
// completions that fell in it, and returns the median over the windows
// that completed anything. done holds completion offsets from the phase
// start.
func perWindow(marks []mark, done []time.Duration, f func(a, b mark, n int) float64) (float64, []float64) {
	var vals []float64
	for i := 1; i < len(marks); i++ {
		if n := countIn(done, marks[i-1].at, marks[i].at); n > 0 {
			vals = append(vals, f(marks[i-1], marks[i], n))
		}
	}
	return median(append([]float64(nil), vals...)), vals
}

// countIn counts the offsets in [lo, hi).
func countIn(done []time.Duration, lo, hi time.Duration) int {
	n := 0
	for _, d := range done {
		if d >= lo && d < hi {
			n++
		}
	}
	return n
}

// satResult is a saturation phase's outcome.
type satResult struct {
	rps     float64   // median window throughput
	windows []float64 // each window's throughput
	allocKB float64   // median window heap allocation per request
	done    int64
	tally   tally
}

// saturate runs the closed loop: every client sends its next request as
// soon as the last one's reply is checked, for d. With recs set, each
// request is also recorded as a sat.rpc span in its client's recorder.
func saturate(clients []*client, d time.Duration, recs []*recorder) satResult {
	start := time.Now()
	first := takeMark(start, true)
	end := start.Add(d)
	doneAt := make([][]time.Duration, len(clients))
	tallies := make([]tally, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				r := c.wl.next(c.rng, c.id)
				t0 := time.Now()
				c.do(c.proxy, r, &tallies[i])
				t1 := time.Now()
				if recs != nil {
					id := recs[i].id()
					recs[i].add(span{ID: id, Req: id, Name: "sat.rpc", Start: recs[i].ns(t0), End: recs[i].ns(t1)})
				}
				doneAt[i] = append(doneAt[i], t1.Sub(start))
			}
		}()
	}
	marks := windowMarks(first, start, d, true)
	wg.Wait()

	var res satResult
	var done []time.Duration
	for i := range clients {
		done = append(done, doneAt[i]...)
		res.tally.add(tallies[i])
	}
	res.done = int64(len(done))
	res.rps, res.windows = perWindow(marks, done, func(a, b mark, n int) float64 {
		return float64(n) / (b.at - a.at).Seconds()
	})
	res.allocKB, _ = perWindow(marks, done, func(a, b mark, n int) float64 {
		return float64(b.alloc-a.alloc) / 1024 / float64(n)
	})
	return res
}

// p99Part is the length of the consecutive parts the fixed-rate phase is
// cut into for p99_us, which is the median of the parts' p99s. Stalls
// from the hypervisor or a neighbour come in bursts of a few to tens of
// milliseconds that delay every request in flight; a two-second part
// holds several bursts, so its p99 is a steady mixture, and the median
// drops a part that caught a long one. Of the part lengths tried (a
// quarter second to a third of the phase), two seconds gave the smallest
// run-to-run spread.
const p99Part = 2 * time.Second

// fixedResult is a fixed-rate phase's outcome.
type fixedResult struct {
	lat       []int64   // due time to checked reply, ns; a failed request counts as never answered
	late      []int64   // due time to release, ns
	p99       float64   // median of the parts' p99 latencies, ns
	p99s      []float64 // each part's p99 latency, ns
	cpuPerReq float64   // median window CPU per request, ns
	tally     tally
}

// fixedRate runs the open loop: each client releases requests on its own
// schedule of rate/len(clients) per second, offset so the clients
// interleave. A request is timed from when it was due, so a stall also
// charges the requests queued behind it; how late the client released it
// is recorded as well. A client thread waits for each reply, so a request
// whose due time passed during the previous one is released at once.
func fixedRate(clients []*client, rate float64, d time.Duration) fixedResult {
	period := time.Duration(float64(time.Second) * float64(len(clients)) / rate)
	start := time.Now()
	first := takeMark(start, false)
	type sample struct {
		done      time.Duration
		lat, late int64
	}
	samples := make([][]sample, len(clients))
	tallies := make([]tally, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			offset := period * time.Duration(i) / time.Duration(len(clients))
			for due := offset; due < d; due += period {
				if wait := time.Until(start.Add(due)); wait > 0 {
					time.Sleep(wait)
				}
				rel := time.Since(start)
				_, ok := c.do(c.proxy, c.wl.next(c.rng, c.id), &tallies[i])
				done := time.Since(start)
				lat := int64(done - due)
				if !ok {
					lat = math.MaxInt64
				}
				samples[i] = append(samples[i], sample{done: done, lat: lat, late: int64(rel - due)})
			}
		}()
	}
	marks := windowMarks(first, start, d, false)
	wg.Wait()

	var res fixedResult
	var all []sample
	for i := range clients {
		all = append(all, samples[i]...)
		res.tally.add(tallies[i])
	}
	done := make([]time.Duration, len(all))
	for i, s := range all {
		done[i] = s.done
		res.lat = append(res.lat, s.lat)
		res.late = append(res.late, s.late)
	}
	res.cpuPerReq, _ = perWindow(marks, done, func(a, b mark, n int) float64 {
		return float64(b.cpu-a.cpu) / float64(n)
	})
	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	parts := int(math.Round(float64(d) / float64(p99Part)))
	if parts < 1 {
		parts = 1
	}
	for p := 0; p < parts; p++ {
		part := all[p*len(all)/parts : (p+1)*len(all)/parts]
		lat := make([]int64, len(part))
		for i, s := range part {
			lat[i] = s.lat
		}
		res.p99s = append(res.p99s, quantile(lat, 0.99))
	}
	res.p99 = median(append([]float64(nil), res.p99s...))
	return res
}
