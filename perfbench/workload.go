package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"machlock/internal/ipc"
	"machlock/internal/machd"
	"machlock/internal/mig"
	"machlock/internal/sched"
)

// The population shape every generated request addresses. It is pinned
// here, and checked against the daemon's OpStat reply, because the
// generator names slots, port names and pages inside it.
const (
	worldTasks   = 32
	portsPerTask = 16
	vmPages      = 64

	// hotSlots is how many tasks the churn workload concentrates on.
	hotSlots = 4
	// Each spawn creates this many threads and faults this many pages.
	spawnThreads = 4
	spawnPages   = 32

	// softDeadline is machd's load generator's soft per-request deadline;
	// a reply later than this counts as an error.
	softDeadline = 250 * time.Millisecond
)

// residentNames is a task's name count at rest: the lookup ports plus
// the chaos port. A churn reply must report exactly this many.
const residentNames = portsPerTask + 1

// workload is one traffic mix. next draws a client's next request from
// its own seeded source.
type workload struct {
	name string
	// rate is the fixed-rate phase's offered load in req/s, summed over
	// both clients: about 40% of the seed's saturated throughput.
	rate float64
	next func(rng *rand.Rand, client int) request
}

var workloads = []*workload{
	{name: "lookup", rate: 4000, next: nextLookup},
	{name: "churn", rate: 4000, next: nextChurn},
	{name: "spawn", rate: 1900, next: nextSpawn},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// request is one generated call.
type request struct {
	op   int
	slot int
	name uint32
	page int
}

// nextLookup: a resident name of any of the tasks.
func nextLookup(rng *rand.Rand, _ int) request {
	return request{op: machd.OpLookup, slot: rng.Intn(worldTasks), name: uint32(1 + rng.Intn(portsPerTask))}
}

// nextChurn: half churns, half lookups, all on the hot tasks. Each client
// churns only its own two hot tasks, so a churn never sees the other
// client's port mid-flight and its name count is exact; lookups range
// over all four, so both clients' reads meet both clients' writes on the
// same space locks.
func nextChurn(rng *rand.Rand, client int) request {
	if rng.Intn(2) == 0 {
		return request{op: machd.OpChurn, slot: 2*client + rng.Intn(2)}
	}
	return request{op: machd.OpLookup, slot: rng.Intn(hotSlots), name: uint32(1 + rng.Intn(portsPerTask))}
}

// nextSpawn: half task spawns, half page touches over the whole
// population, which outgrows the page pool and keeps pageout reclaiming.
func nextSpawn(rng *rand.Rand, _ int) request {
	if rng.Intn(2) == 0 {
		return request{op: machd.OpSpawn}
	}
	return request{op: machd.OpTouch, slot: rng.Intn(worldTasks), page: rng.Intn(vmPages)}
}

// reply is the part of a typed reply the checker reads.
type reply struct {
	found  bool
	names  int
	id     int64
	faults int64
}

// call performs r through the exported mig stubs on port: a netmsg proxy
// for the served path, or the daemon's service port for the in-process
// replay.
func call(t *sched.Thread, port *ipc.Port, r request) (reply, error) {
	switch r.op {
	case machd.OpLookup:
		rep, err := mig.Call[machd.LookupArgs, machd.LookupReply](t, port, r.op,
			&machd.LookupArgs{Slot: r.slot, Name: r.name})
		if err != nil {
			return reply{}, err
		}
		return reply{found: rep.Found}, nil
	case machd.OpChurn:
		rep, err := mig.Call[machd.ChurnArgs, machd.ChurnReply](t, port, r.op,
			&machd.ChurnArgs{Slot: r.slot})
		if err != nil {
			return reply{}, err
		}
		return reply{names: rep.Names}, nil
	case machd.OpSpawn:
		rep, err := mig.Call[machd.SpawnArgs, machd.SpawnReply](t, port, r.op,
			&machd.SpawnArgs{Threads: spawnThreads, Pages: spawnPages})
		if err != nil {
			return reply{}, err
		}
		return reply{id: rep.ID}, nil
	case machd.OpTouch:
		rep, err := mig.Call[machd.TouchArgs, machd.TouchReply](t, port, r.op,
			&machd.TouchArgs{Slot: r.slot, Page: r.page})
		if err != nil {
			return reply{}, err
		}
		return reply{faults: rep.Faults}, nil
	}
	return reply{}, fmt.Errorf("perfbench: no stub for op %d", r.op)
}

// checker validates one client's replies. Spawn ids and a map's fault
// count only increase, and a client that waits for each reply before
// sending the next sees every increase.
type checker struct {
	lastID     int64
	lastFaults [worldTasks]int64
}

func (c *checker) ok(r request, rep reply) bool {
	switch r.op {
	case machd.OpLookup:
		return rep.found
	case machd.OpChurn:
		return rep.names == residentNames
	case machd.OpSpawn:
		if rep.id <= c.lastID {
			return false
		}
		c.lastID = rep.id
		return true
	case machd.OpTouch:
		if rep.faults <= c.lastFaults[r.slot] {
			return false
		}
		c.lastFaults[r.slot] = rep.faults
		return true
	}
	return false
}

// tally counts request outcomes.
type tally struct {
	attempted int64
	failed    int64 // the call returned an error
	wrong     int64 // the reply failed its check
	late      int64 // the reply came after softDeadline
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.late += o.late
}

// bad is every request that counts against error_rate.
func (t tally) bad() int64 { return t.failed + t.wrong + t.late }

// client is one load thread with its own connection.
type client struct {
	id    int
	self  *sched.Thread
	proxy *ipc.Port
	rng   *rand.Rand
	wl    *workload
	chk   checker

	// replies counts checked replies; the plant-th one is zeroed before
	// its check, to prove a wrong reply is caught (0 plants nothing).
	replies int64
	plant   int64

	spawns *atomic.Int64 // spawns sent to the daemon by every client
}

// do sends r to port, checks the reply and counts the outcome in tl. It
// returns the time from send to reply and whether the request succeeded.
func (c *client) do(port *ipc.Port, r request, tl *tally) (time.Duration, bool) {
	if r.op == machd.OpSpawn {
		c.spawns.Add(1)
	}
	t0 := time.Now()
	rep, err := call(c.self, port, r)
	svc := time.Since(t0)
	c.replies++
	if c.replies == c.plant {
		rep = reply{}
	}
	tl.attempted++
	switch {
	case err != nil:
		tl.failed++
	case !c.chk.ok(r, rep):
		tl.wrong++
	case svc > softDeadline:
		tl.late++
	default:
		return svc, true
	}
	return svc, false
}
