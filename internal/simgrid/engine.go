//go:build go1.23

// Package simgrid is a deterministic, process-oriented discrete-event
// simulator. It stands in for the physical clusters of the paper's testbed:
// the FREERIDE-G middleware is executed against simulated disks, network
// links, and CPUs, all sharing one virtual clock.
//
// Processes are ordinary functions run as coroutines (iter.Pull), and
// exactly one process executes at any instant: a process runs until it
// blocks on the virtual clock (Wait), a Resource, a Barrier or a Mailbox,
// at which point it switches straight back to the engine, which advances
// the clock to the next event and handles that event. A Wait whose
// wake-up is strictly earlier than every event on the calendar would be
// the very next event, so it advances the clock in place and takes no
// event at all; a wake-up that ties with a scheduled event is scheduled
// behind it, so the event scheduled first still runs first. Ties are
// broken by event sequence number, so simulations are fully deterministic
// and repeatable.
//
// The calendar is a binary heap of events plus a FIFO of the events
// scheduled for the current instant (barrier releases, resource grants,
// mailbox wake-ups), which skip the heap. The order is still (time,
// sequence number): the heap never takes an event for the instant the
// clock is at, so every heap event at that instant was scheduled before,
// and precedes, every FIFO entry, and the clock moves on only once the
// FIFO is empty (FuzzCalendarOrder checks this against a sorted
// reference).
//
// A process may hand the engine a script of steps (Do): a Wait, Acquire,
// Release or Arrive each. The engine runs the steps on the calendar at
// exactly the point in event order where the process would have made
// each call: when a step blocks, the event that ends the block (the
// wake-up, the grant, the barrier's release) continues the script on the
// engine's own stack, and the engine switches back into the process only
// when its last step has completed. A script therefore takes the same
// events as the same calls made one by one, in the same order, at the same
// virtual times (FuzzScriptTieOrder checks this), but only one coroutine
// switch. Wait, Acquire, Release and Arrive are one-step scripts.
//
// Each process carries its own state (why it last parked, whether it has
// finished, the script it is running), and the engine
// keeps its processes in one list in spawn order: a deadlock report walks
// that list, and after a failure the engine stops every unfinished
// process along it — a parked one unwinds through its deferred calls, one
// that never started never runs its body — so a failed run leaves no
// coroutine behind.
//
// An Engine confines all of its mutable state (clock, calendar, process
// list) to itself and runs exactly one process at a time, so independent
// Engines may run concurrently on separate goroutines without any
// synchronization between them — the property the bench package's
// parallel sweep runner relies on.
//
// This file carries a go1.23 build constraint because iter.Pull needs that
// language version while go.mod still says go 1.22; the constraint goes
// when go.mod is raised.
package simgrid

import (
	"fmt"
	"iter"
	"sort"
	"time"
)

// Engine owns the virtual clock and the event calendar: a heap of events
// and a FIFO of the events scheduled at the current instant.
type Engine struct {
	now      time.Duration
	events   eventHeap
	fifo     []event // events scheduled at now, in sequence order, from fifoHead on
	fifoHead int
	seq      uint64
	procs    []*Proc // every spawned process, in spawn order
	failure  error

	taken    uint64 // events Run has taken off the calendar
	switches uint64 // coroutine switches into processes made by Run
}

// event is one calendar entry. Events live inline in the heap slice —
// no per-event heap allocation, and the slice's backing array is reused
// as the calendar grows and shrinks.
type event struct {
	at   time.Duration
	seq  uint64
	proc *Proc
}

func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a concrete binary min-heap of events, ordered by time
// then sequence number. It replaces container/heap to keep interface{}
// boxing (one heap allocation per Push) off the per-event hot path.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{}
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s[l].before(s[min]) {
			min = l
		}
		if r < n && s[r].before(s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// blockReason records why a process is parked without formatting it:
// parking is the simulator's hottest path and deadlocks are rare, so the
// human-readable string is rendered only when deadlock diagnostics
// actually need it.
type blockReason struct {
	op   string        // one of the op* constants
	name string        // resource/mailbox/barrier name (op != opWaiting)
	dur  time.Duration // wait duration (op == opWaiting)
}

const (
	opWaiting = "waiting"
	opAcquire = "acquire"
	opRecv    = "recv"
	opBarrier = "barrier"
)

func (r blockReason) String() string {
	if r.op == opWaiting {
		return fmt.Sprintf("waiting %v", r.dur)
	}
	return r.op + " " + r.name
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Events reports how many events Run has taken off the calendar: the
// run's scheduling work, independent of the host it runs on and of how
// its processes cut their calls into scripts. A Wait that moves the
// clock in place takes no event.
func (e *Engine) Events() uint64 { return e.taken }

// Switches reports how many times Run has switched into a process: once
// per start, per Mailbox wake-up and per script whose last step completed
// on the engine. An event that continues a script without ending it is
// not a switch, so Switches is at most Events.
func (e *Engine) Switches() uint64 { return e.switches }

// Proc is a simulated process. All blocking methods must be called from
// the process's own body function.
type Proc struct {
	e      *Engine
	name   string
	next   func() (struct{}, bool) // switch into the process until it parks or ends
	stop   func()                  // unwind a parked process, or retire an unstarted one
	yield  func(struct{}) bool     // switch back to the engine; false once stopped
	err    error
	parked blockReason // why the process last parked
	done   bool        // the body has returned, failed or been stopped

	script []Step  // the steps of the Do in progress; nil outside Do
	pc     int     // the script's current step
	one    [1]Step // the script of a single Wait, Acquire, Release or Arrive
}

// Name reports the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time.
func (p *Proc) Now() time.Duration { return p.e.now }

// Spawn registers a new process. The body runs when Run is called (or
// immediately at the current virtual time if the simulation is already
// running). A body may itself spawn further processes. If the run fails
// before the process is first scheduled, its body never runs.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{e: e, name: name}
	e.procs = append(e.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, aborted := r.(abortSignal); !aborted {
					p.err = fmt.Errorf("simgrid: process %q panicked: %v", name, r)
				}
			}
			p.done = true
		}()
		body(p)
	})
	e.schedule(e.now, p)
	return p
}

// schedule puts p on the calendar at virtual time at (>= now). An event
// at the current instant goes to the FIFO and skips the heap: it has a
// later sequence number than every event already scheduled for now.
func (e *Engine) schedule(at time.Duration, p *Proc) {
	e.seq++
	ev := event{at: at, seq: e.seq, proc: p}
	if at == e.now {
		e.fifo = append(e.fifo, ev)
		return
	}
	e.events.push(ev)
}

// pending reports whether the calendar holds an event.
func (e *Engine) pending() bool { return len(e.events) > 0 || e.fifoHead < len(e.fifo) }

// next takes the calendar's earliest event by (time, sequence number); the
// calendar must not be empty. The FIFO holds only events scheduled at the
// current instant, after every event the heap holds for it, so the heap's
// top goes first while it is at or before the FIFO's front, and the FIFO
// otherwise.
func (e *Engine) next() event {
	if e.fifoHead == len(e.fifo) || (len(e.events) > 0 && e.events[0].before(e.fifo[e.fifoHead])) {
		return e.events.pop()
	}
	ev := e.fifo[e.fifoHead]
	e.fifo[e.fifoHead] = event{}
	if e.fifoHead++; e.fifoHead == len(e.fifo) {
		e.fifo, e.fifoHead = e.fifo[:0], 0
	}
	return ev
}

// wakeInPlace moves the clock to at, taking a sequence number, if a
// wake-up at at would be the calendar's next event: the FIFO is empty and
// at is strictly earlier than the heap's top. It reports whether it did.
func (e *Engine) wakeInPlace(at time.Duration) bool {
	if e.fifoHead < len(e.fifo) || (len(e.events) > 0 && at >= e.events[0].at) {
		return false
	}
	e.seq++
	e.now = at
	return true
}

// park switches from the calling process back to the engine until the
// engine resumes it. The caller has recorded why in p.parked, for
// deadlock diagnostics.
func (p *Proc) park() {
	if !p.yield(struct{}{}) || p.e.failure != nil {
		// The run has failed or deadlocked; unwind this process too.
		panic(abortSignal{})
	}
}

type abortSignal struct{}

// Wait advances the process by d of virtual time. Negative durations are
// treated as zero. If the wake-up is strictly earlier than every event on
// the calendar, it would be the next event anyway, so Wait takes its
// sequence number and moves the clock without leaving the process; a
// wake-up that ties with a scheduled event parks behind it. Wait performs
// no heap allocations on either path (the event calendar, the block-reason
// record and the one-step script are all inline values), which keeps the
// per-event cost of large simulations flat.
func (p *Proc) Wait(d time.Duration) { p.do1(WaitStep(d)) }

// do1 runs a one-step script.
func (p *Proc) do1(s Step) {
	p.one[0] = s
	p.Do(p.one[:])
}

// Step is one engine call a process hands to Do: a Wait, Acquire,
// Release or Arrive, made with WaitStep, AcquireStep, ReleaseStep or
// ArriveStep.
type Step struct {
	op stepOp
	d  time.Duration // stepWait
	r  *Resource     // stepAcquire, stepRelease
	b  *Barrier      // stepArrive
}

type stepOp uint8

const (
	stepWait stepOp = iota
	stepAcquire
	stepRelease
	stepArrive
)

// WaitStep is the step of Wait(d).
func WaitStep(d time.Duration) Step { return Step{op: stepWait, d: d} }

// AcquireStep is the step of Acquire(r).
func AcquireStep(r *Resource) Step { return Step{op: stepAcquire, r: r} }

// ReleaseStep is the step of Release(r).
func ReleaseStep(r *Resource) Step { return Step{op: stepRelease, r: r} }

// ArriveStep is the step of Arrive(b).
func ArriveStep(b *Barrier) Step { return Step{op: stepArrive, b: b} }

// Do makes the calls of steps in order, as if the process made them one
// by one, and returns when the last one has completed. The engine runs
// the steps that block on its own stack, at their place in event order,
// and switches back into the process only once, at the end, so the
// process must not expect to run in between: anything it would do between
// two calls that reads the clock or another process's state belongs
// after Do. Do does not keep steps after it returns; the caller may reuse
// the slice.
func (p *Proc) Do(steps []Step) {
	p.script, p.pc = steps, 0
	for !p.advance(true) {
		p.park()
	}
	p.script = nil
}

// advance runs p's script from its current step until a step blocks
// (false) or the script has ended (true). A blocked step is left
// current; Run completes it when it takes the event that ends the block.
// On the engine's stack (inProc false) advance stops short of a step
// that panics, and reports the script ended so that the process,
// switched back in, makes that step itself and panics in its own body.
func (p *Proc) advance(inProc bool) bool {
	e := p.e
	for ; p.pc < len(p.script); p.pc++ {
		s := &p.script[p.pc]
		switch s.op {
		case stepWait:
			d := max(s.d, 0)
			at := e.now + d
			if e.failure == nil && e.wakeInPlace(at) {
				continue
			}
			e.schedule(at, p)
			p.parked = blockReason{op: opWaiting, dur: d}
			return false
		case stepAcquire:
			if !s.r.acquire(p) {
				p.parked = blockReason{op: opAcquire, name: s.r.name}
				return false
			}
		case stepRelease:
			if s.r.inUse <= 0 {
				if !inProc {
					return true
				}
				panic(fmt.Sprintf("simgrid: release of idle resource %q by %s", s.r.name, p.name))
			}
			s.r.release()
		case stepArrive:
			if !s.b.arrive(p) {
				p.parked = blockReason{op: opBarrier, name: s.b.name}
				return false
			}
		}
	}
	return true
}

// Fail aborts the process's simulation run with an error. The engine's Run
// returns this error.
func (p *Proc) Fail(err error) {
	p.err = err
	panic(abortSignal{})
}

// Run executes the simulation until no events remain. It returns an error
// if a process failed or panicked, or if all remaining processes are
// blocked with no pending event (deadlock). Either way every unfinished
// process is stopped before Run returns.
func (e *Engine) Run() error {
	for e.failure == nil && e.pending() {
		ev := e.next()
		if ev.at < e.now {
			e.failure = fmt.Errorf("simgrid: event scheduled in the past (%v < %v)", ev.at, e.now)
			break
		}
		e.now = ev.at
		e.taken++
		p := ev.proc
		if p.script != nil {
			// The event ends the block of the script's current step.
			p.pc++
			if !p.advance(false) {
				continue
			}
		}
		e.switches++
		p.next()
		e.failure = p.err // set only once the process has finished
	}
	if e.failure == nil {
		e.failure = e.deadlock()
	}
	if e.failure != nil {
		e.drain()
	}
	return e.failure
}

// drain stops every unfinished process in spawn order once the run has
// failed, so its coroutine ends: a parked one panics out of park and
// unwinds through its deferred calls (a deferred call that parks again
// panics out at once), and one that never started never runs its body.
// A deferred call may spawn a process, so the list is re-read each step.
func (e *Engine) drain() {
	for i := 0; i < len(e.procs); i++ {
		if p := e.procs[i]; !p.done {
			p.stop()
			p.done = true
		}
	}
}

// deadlock reports every unfinished process and why it is parked, sorted,
// or nil if every process has finished. With an empty calendar each
// unfinished process is parked on a resource, mailbox or barrier.
func (e *Engine) deadlock() error {
	var names []string
	for _, p := range e.procs {
		if !p.done {
			names = append(names, fmt.Sprintf("%s (%s)", p.name, p.parked))
		}
	}
	if names == nil {
		return nil
	}
	sort.Strings(names)
	return fmt.Errorf("simgrid: deadlock at %v; blocked: %v", e.now, names)
}
