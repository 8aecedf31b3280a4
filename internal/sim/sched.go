package sim

import (
	"fmt"
	"sort"
)

// Disposition is the state of a thread after a scheduling step.
type Disposition int

const (
	// Yield means the thread is still runnable (it exhausted its quantum or
	// voluntarily yielded) and should be re-queued.
	Yield Disposition = iota
	// Blocked means the thread is waiting on a resource and must not run
	// until Wake is called for it.
	Blocked
	// Done means the thread has terminated.
	Done
)

func (d Disposition) String() string {
	switch d {
	case Yield:
		return "yield"
	case Blocked:
		return "blocked"
	case Done:
		return "done"
	}
	return fmt.Sprintf("disposition(%d)", int(d))
}

// Runner is the body of a simulated thread. Step runs the thread for up to
// quantum cycles of simulated work and reports how many cycles it consumed
// together with its disposition. A step may overshoot the quantum by its
// last indivisible operation. A Blocked thread must arrange (through the
// resource it blocks on) for Scheduler.Wake to be called later. Step must
// consume at least one cycle unless it blocks or finishes, so the simulation
// always makes progress.
type Runner interface {
	Step(quantum Cycles) (consumed Cycles, d Disposition)
}

type threadState int

const (
	stateRunnable threadState = iota
	stateRunning
	stateBlocked
	stateDone
)

// Thread is a simulated OS thread.
type Thread struct {
	ID   int
	Name string

	// Affinity is the set of core IDs the thread may run on. Empty means
	// any core.
	Affinity []int

	runner      Runner
	state       threadState
	core        int // core currently queued on or running on; -1 if none
	vruntime    Cycles
	sched       *Scheduler
	wakePending bool // a wake arrived while the thread was mid-step

	// OnCoreChange, if non-nil, is called when the thread is dispatched on a
	// different core than its previous dispatch (including first dispatch,
	// with prev == -1). The hardware model uses this to account for cache
	// affinity loss on migration.
	OnCoreChange func(prev, next int)

	lastCore int // core of previous dispatch, -1 initially
}

// Vruntime returns the thread's accumulated virtual runtime.
func (t *Thread) Vruntime() Cycles { return t.vruntime }

// Core is one simulated CPU core.
type Core struct {
	ID     int
	Socket int

	runq   []*Thread
	busyAt Cycles // time until which the core is executing
	active bool   // a dispatch chain is in flight
	last   *Thread

	busyCycles Cycles // total cycles spent running threads (utilization)
	switches   int64  // context switches observed
}

// BusyCycles reports cycles this core spent executing threads.
func (c *Core) BusyCycles() Cycles { return c.busyCycles }

// Switches reports the number of context switches on this core.
func (c *Core) Switches() int64 { return c.switches }

// SchedulerConfig holds scheduler tuning parameters.
type SchedulerConfig struct {
	// Quantum is the time-slice length. Linux CFS targets a few
	// milliseconds; the default is 1 ms at 2.4 GHz.
	Quantum Cycles
	// SwitchCost is the direct cost of a context switch (register state,
	// kernel entry); cache pollution is modelled separately by the
	// hardware layer via Thread.OnCoreChange and natural cache reuse.
	SwitchCost Cycles
}

// DefaultSchedulerConfig returns production defaults for a 2.4 GHz machine.
func DefaultSchedulerConfig() SchedulerConfig {
	return SchedulerConfig{
		Quantum:    2_400_000, // 1 ms
		SwitchCost: 7_200,     // 3 us
	}
}

// Scheduler models an OS thread scheduler over a fixed set of cores.
// Threads are created with Spawn, placed on the least-loaded allowed core,
// and run in quanta. It approximates CFS: per-core run queues ordered by
// virtual runtime, with wake-time placement onto the least-loaded core.
type Scheduler struct {
	K     *Kernel
	cfg   SchedulerConfig
	cores []*Core

	threads []*Thread
	live    int

	pendingWakes []*Thread // wakes produced during the current Step
	inStep       bool

	// OnSlice, if non-nil, observes every dispatch: thread t occupied core
	// for [start, start+dur) (dur includes context-switch overhead) and left
	// in disposition d. The tracing layer uses it to build per-core and
	// per-executor timelines; it must not re-enter the scheduler.
	OnSlice func(t *Thread, core int, start, dur Cycles, d Disposition)
}

// NewScheduler creates a scheduler over nCores cores, coresPerSocket wide
// sockets, driven by kernel k.
func NewScheduler(k *Kernel, nCores, coresPerSocket int, cfg SchedulerConfig) *Scheduler {
	if cfg.Quantum <= 0 {
		panic("sim: non-positive quantum")
	}
	s := &Scheduler{K: k, cfg: cfg}
	for i := 0; i < nCores; i++ {
		s.cores = append(s.cores, &Core{ID: i, Socket: i / coresPerSocket})
	}
	return s
}

// Cores returns the simulated cores.
func (s *Scheduler) Cores() []*Core { return s.cores }

// Live reports the number of threads that have not finished.
func (s *Scheduler) Live() int { return s.live }

// Spawn creates a runnable thread executing r, restricted to the given
// affinity (nil or empty = all cores), and enqueues it.
func (s *Scheduler) Spawn(name string, r Runner, affinity []int) *Thread {
	t := &Thread{
		ID:       len(s.threads),
		Name:     name,
		Affinity: append([]int(nil), affinity...),
		runner:   r,
		state:    stateRunnable,
		core:     -1,
		lastCore: -1,
		sched:    s,
	}
	s.threads = append(s.threads, t)
	s.live++
	s.enqueue(t)
	return t
}

// Wake marks a blocked thread runnable. Safe to call from within a running
// Step; the wake takes effect when the step completes. Waking a runnable
// thread is a no-op. Waking a thread that is mid-step (its blocking
// disposition not yet applied) records the wake so the thread is re-queued
// instead of blocked when its step completes — otherwise the wakeup would
// be lost and the thread could sleep forever.
func (s *Scheduler) Wake(t *Thread) {
	switch t.state {
	case stateRunning:
		t.wakePending = true
	case stateBlocked:
		t.state = stateRunnable
		if s.inStep {
			s.pendingWakes = append(s.pendingWakes, t)
			return
		}
		s.enqueue(t)
	}
}

func (t *Thread) allowed(core int) bool {
	if len(t.Affinity) == 0 {
		return true
	}
	for _, c := range t.Affinity {
		if c == core {
			return true
		}
	}
	return false
}

// enqueue places t on the least-loaded allowed core and kicks dispatch.
// Like CFS, it prefers the thread's previous core (cache affinity) unless
// another allowed core is strictly less loaded.
func (s *Scheduler) enqueue(t *Thread) {
	load := func(c *Core) int {
		l := len(c.runq)
		if c.active {
			l++ // a running thread counts toward load
		}
		return l
	}
	best := -1
	bestLoad := 1 << 30
	for _, c := range s.cores {
		if !t.allowed(c.ID) {
			continue
		}
		if l := load(c); l < bestLoad {
			bestLoad = l
			best = c.ID
		}
	}
	if best < 0 {
		panic(fmt.Sprintf("sim: thread %q has empty effective affinity", t.Name))
	}
	if t.lastCore >= 0 && t.lastCore != best && t.allowed(t.lastCore) &&
		load(s.cores[t.lastCore]) <= bestLoad+1 {
		best = t.lastCore
	}
	c := s.cores[best]
	t.core = best
	// Wake-up preemption fairness: a freshly queued thread should not lag
	// arbitrarily behind, nor leapfrog the queue. Clamp vruntime to the
	// core's minimum, as CFS does on wakeup.
	if min, ok := s.minVruntime(c); ok && t.vruntime < min {
		t.vruntime = min
	}
	c.runq = append(c.runq, t)
	s.kick(c)
}

func (s *Scheduler) minVruntime(c *Core) (Cycles, bool) {
	var min Cycles
	found := false
	for _, q := range c.runq {
		if !found || q.vruntime < min {
			min, found = q.vruntime, true
		}
	}
	return min, found
}

// kick schedules a dispatch on core c if one is not already in flight.
func (s *Scheduler) kick(c *Core) {
	if c.active || len(c.runq) == 0 {
		return
	}
	c.active = true
	at := s.K.Now()
	if c.busyAt > at {
		at = c.busyAt
	}
	s.K.At(at, func() { s.dispatch(c) })
}

// dispatch picks the next thread on c and runs one quantum of it.
func (s *Scheduler) dispatch(c *Core) {
	c.active = false
	if len(c.runq) == 0 {
		return
	}
	// Pick min-vruntime thread (stable on ties by queue order).
	idx := 0
	for i, t := range c.runq {
		if t.vruntime < c.runq[idx].vruntime {
			idx = i
		}
		_ = i
	}
	t := c.runq[idx]
	c.runq = append(c.runq[:idx], c.runq[idx+1:]...)

	var overhead Cycles
	if c.last != t {
		if c.last != nil {
			overhead = s.cfg.SwitchCost
			c.switches++
		}
		c.last = t
	}
	if t.lastCore != c.ID {
		if t.OnCoreChange != nil {
			t.OnCoreChange(t.lastCore, c.ID)
		}
		t.lastCore = c.ID
	}

	t.state = stateRunning
	s.inStep = true
	consumed, d := t.runner.Step(s.cfg.Quantum)
	s.inStep = false
	if consumed < 0 {
		panic(fmt.Sprintf("sim: thread %q consumed negative cycles", t.Name))
	}
	// A step may overshoot the quantum by the cost of its last indivisible
	// operation (e.g. a GC pause landing mid-tuple); runners self-limit.
	if consumed == 0 && d == Yield {
		// Force progress: a runnable thread that did nothing burns a cycle
		// (models a spurious wakeup / immediate re-block check).
		consumed = 1
	}

	total := consumed + overhead
	c.busyCycles += total
	c.busyAt = s.K.Now() + total
	t.vruntime += consumed
	if s.OnSlice != nil {
		s.OnSlice(t, c.ID, s.K.Now(), total, d)
	}

	// Wakes produced during the step take effect at the end of the step's
	// execution window, as do the thread's own state transition and the
	// next dispatch on this core. Capture the wake list now: other cores
	// may step (and produce their own wakes) before our completion fires.
	wakes := s.pendingWakes
	s.pendingWakes = nil
	s.K.At(c.busyAt, func() { s.complete(c, t, d, wakes) })
}

// complete finishes a step at the end of its execution window: it applies
// the thread's disposition, releases deferred wakes, and re-arms the core.
func (s *Scheduler) complete(c *Core, t *Thread, d Disposition, wakes []*Thread) {
	switch d {
	case Yield:
		t.state = stateRunnable
		t.wakePending = false
		c.runq = append(c.runq, t)
	case Blocked:
		if t.wakePending {
			// A wake raced with this step's blocking decision: stay runnable.
			t.wakePending = false
			t.state = stateRunnable
			c.runq = append(c.runq, t)
		} else {
			t.state = stateBlocked
			t.core = -1
		}
	case Done:
		t.state = stateDone
		t.core = -1
		s.live--
	}
	for _, w := range wakes {
		s.enqueue(w)
	}
	s.kick(c)
}

// Utilization returns the fraction of total core-cycles spent busy over the
// elapsed simulated time on the given cores (all cores if ids is nil).
func (s *Scheduler) Utilization(ids []int) float64 {
	elapsed := s.K.Now()
	if elapsed == 0 {
		return 0
	}
	var busy Cycles
	n := 0
	want := map[int]bool{}
	for _, id := range ids {
		want[id] = true
	}
	for _, c := range s.cores {
		if len(ids) > 0 && !want[c.ID] {
			continue
		}
		busy += c.busyCycles
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(busy) / (float64(elapsed) * float64(n))
}

// CoresOnSockets returns the core IDs belonging to the given sockets,
// sorted ascending.
func (s *Scheduler) CoresOnSockets(sockets []int) []int {
	want := map[int]bool{}
	for _, sk := range sockets {
		want[sk] = true
	}
	var ids []int
	for _, c := range s.cores {
		if want[c.Socket] {
			ids = append(ids, c.ID)
		}
	}
	sort.Ints(ids)
	return ids
}
