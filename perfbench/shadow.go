package main

import (
	"fmt"
	"time"

	"machlock/internal/ipc"
	"machlock/internal/kern"
	"machlock/internal/machd"
	"machlock/internal/sched"
	"machlock/internal/vm"
)

// shadow is the benchmark's own resident population, built like machd's
// world: the same task count, names and mappings over an undersized page
// pool with pageout running. The traced run calls the kernel functions
// behind each handler on it directly, without mig or ipc dispatch.
type shadow struct {
	pool    *vm.PagePool
	pageout *vm.Pageout
	tasks   []*kern.Task
}

func newShadow(t *sched.Thread) (*shadow, error) {
	// Half the population's mapping, as machd sizes its pool by default.
	s := &shadow{pool: vm.NewPool(worldTasks * vmPages / 2)}
	s.pageout = vm.NewPageout(s.pool)
	for i := 0; i < worldTasks; i++ {
		task := kern.NewTask(fmt.Sprintf("perfbench.task%d", i), s.pool)
		s.tasks = append(s.tasks, task)
		for j := 0; j < residentNames; j++ {
			p := ipc.NewPort(fmt.Sprintf("perfbench.t%d.p%d", i, j))
			task.InsertPort(t, p)
			p.Release(nil) // the name-space entry keeps its own reference
		}
		obj := vm.NewObject(s.pool, vmPages)
		if err := task.Map().Allocate(t, 0, vmPages, obj, 0); err != nil {
			obj.Release(t)
			s.stop()
			return nil, fmt.Errorf("shadow task %d: %w", i, err)
		}
		obj.Release(t) // the map entry keeps its own reference
		s.pageout.AddMap(task.Map())
	}
	s.pageout.Start()
	return s, nil
}

// stop stops pageout and terminates the population.
func (s *shadow) stop() {
	s.pageout.Stop()
	reaper := sched.New("perfbench-reaper")
	for _, task := range s.tasks {
		_ = task.Terminate(reaper) // a resident task is terminated once
	}
}

// replay performs the kernel calls behind r's machd handler.
func (s *shadow) replay(t *sched.Thread, r request) error {
	switch r.op {
	case machd.OpLookup:
		p, err := s.tasks[r.slot].TranslatePort(t, ipc.Name(r.name))
		if err != nil {
			return err
		}
		p.Release(nil)
		return nil
	case machd.OpChurn:
		task := s.tasks[r.slot]
		p := ipc.NewPort("perfbench.churn")
		n := task.InsertPort(t, p)
		err := task.Space().Remove(t, n)
		p.Destroy()
		if err != nil {
			return err
		}
		if got := task.Space().Len(t); got != residentNames {
			return fmt.Errorf("churned space holds %d names, want %d", got, residentNames)
		}
		return nil
	case machd.OpSpawn:
		_, err := s.spawn(t)
		return err
	case machd.OpTouch:
		return s.tasks[r.slot].Map().Fault(t, uint64(r.page), false)
	}
	return fmt.Errorf("perfbench: no replay for op %d", r.op)
}

// spawn creates a task with spawnThreads threads and spawnPages faulted
// pages and terminates it, as machd's spawn handler does. It returns when
// the terminate began and ended.
func (s *shadow) spawn(t *sched.Thread) ([2]time.Time, error) {
	var term [2]time.Time
	task := kern.NewTask("perfbench.spawn", s.pool)
	for i := 0; i < spawnThreads; i++ {
		if _, err := task.CreateThread("perfbench.spawn.thread"); err != nil {
			_ = task.Terminate(t)
			return term, err
		}
	}
	o := vm.NewObject(s.pool, spawnPages)
	if err := task.Map().Allocate(t, 0, spawnPages, o, 0); err != nil {
		o.Release(t)
		_ = task.Terminate(t)
		return term, err
	}
	o.Release(t)
	for pg := 0; pg < spawnPages; pg++ {
		if err := task.Map().Fault(t, uint64(pg), false); err != nil {
			_ = task.Terminate(t)
			return term, err
		}
	}
	term[0] = time.Now()
	err := task.Terminate(t)
	term[1] = time.Now()
	return term, err
}
