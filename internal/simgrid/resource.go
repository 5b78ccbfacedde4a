package simgrid

import (
	"fmt"
	"time"
)

// Resource is a FIFO-queued resource with a fixed capacity (number of
// simultaneous holders). Disks, network endpoints, and the cluster
// interconnect are modeled as Resources.
type Resource struct {
	e        *Engine
	name     string
	capacity int
	inUse    int
	waiters  []*Proc

	// busy integrates inUse over virtual time up to lastChange, the
	// last Acquire or Release: total held time across holders, with no
	// per-holder record.
	busy       time.Duration
	lastChange time.Duration
}

// NewResource creates a resource with the given capacity (>= 1).
func (e *Engine) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("simgrid: resource %q capacity must be >= 1", name))
	}
	return &Resource{e: e, name: name, capacity: capacity}
}

// Name reports the resource name.
func (r *Resource) Name() string { return r.name }

// BusyTime reports the cumulative virtual time the resource has been held,
// summed over holders (a capacity-2 resource held by two processes for 1s
// accumulates 2s). A hold still in progress counts up to the resource's
// last Acquire or Release.
func (r *Resource) BusyTime() time.Duration { return r.busy }

// setInUse moves the occupancy to n at the current virtual time, first
// integrating the old occupancy since the last change.
func (r *Resource) setInUse(n int) {
	r.busy += time.Duration(r.inUse) * (r.e.now - r.lastChange)
	r.lastChange = r.e.now
	r.inUse = n
}

// Acquire takes one unit of the resource, blocking in FIFO order until a
// unit is free. Each Acquire must be paired with a Release by the same
// process.
func (p *Proc) Acquire(r *Resource) { p.do1(AcquireStep(r)) }

// acquire takes a free unit for p and reports true, or queues p behind
// the waiters and reports false: a later release hands p the unit and
// schedules it.
func (r *Resource) acquire(p *Proc) bool {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.setInUse(r.inUse + 1)
		return true
	}
	r.waiters = append(r.waiters, p)
	return false
}

// Release returns one unit of the resource and wakes the first waiter,
// if any, at the current virtual time.
func (p *Proc) Release(r *Resource) { p.do1(ReleaseStep(r)) }

// release returns a held unit: to the first waiter, scheduled at the
// current virtual time, or to the pool.
func (r *Resource) release() {
	if len(r.waiters) == 0 {
		r.setInUse(r.inUse - 1)
		return
	}
	// The unit transfers directly to the first waiter. The occupancy does
	// not change, but the finished hold is integrated now, so a capacity-1
	// resource's BusyTime is exactly its completed holds at any moment.
	r.setInUse(r.inUse)
	r.e.schedule(r.e.now, popProc(&r.waiters))
}

// Use acquires the resource, holds it for d of virtual time, and releases
// it. It returns the total elapsed virtual time including queueing delay.
func (p *Proc) Use(r *Resource, d time.Duration) time.Duration {
	start := p.e.now
	p.Acquire(r)
	p.Wait(d)
	p.Release(r)
	return p.e.now - start
}

// Mailbox is an unbounded FIFO queue of messages between processes.
// Put never blocks; Get blocks until a message is available.
type Mailbox struct {
	e       *Engine
	name    string
	queue   []interface{}
	waiters []*Proc
}

// NewMailbox creates an empty mailbox.
func (e *Engine) NewMailbox(name string) *Mailbox {
	return &Mailbox{e: e, name: name}
}

// Len reports the number of queued messages.
func (m *Mailbox) Len() int { return len(m.queue) }

// Put enqueues a message and wakes the first waiting receiver, if any.
// It may be called from any process (or from spawn-time setup code).
func (m *Mailbox) Put(v interface{}) {
	m.queue = append(m.queue, v)
	if len(m.waiters) > 0 {
		m.e.schedule(m.e.now, popProc(&m.waiters))
	}
}

// Get dequeues the oldest message, blocking until one is available.
func (p *Proc) Get(m *Mailbox) interface{} {
	for len(m.queue) == 0 {
		m.waiters = append(m.waiters, p)
		p.parked = blockReason{op: opRecv, name: m.name}
		p.park()
	}
	n := len(m.queue)
	v := m.queue[0]
	copy(m.queue, m.queue[1:])
	m.queue[n-1] = nil
	m.queue = m.queue[:n-1]
	return v
}

// popProc dequeues the first waiter by shifting in place, keeping the
// slice anchored to its backing array. Re-slicing from the front
// (s = s[1:]) would shrink the capacity on every wake and force a fresh
// allocation per park/resume cycle; waiter queues are short (bounded by
// the process count), so the copy is cheaper than that steady-state
// garbage.
func popProc(s *[]*Proc) *Proc {
	q := *s
	n := len(q)
	p := q[0]
	copy(q, q[1:])
	q[n-1] = nil
	*s = q[:n-1]
	return p
}

// Barrier blocks a group of processes until n of them have arrived.
type Barrier struct {
	e       *Engine
	name    string
	n       int
	arrived int
	waiters []*Proc
}

// NewBarrier creates a barrier for n participants.
func (e *Engine) NewBarrier(name string, n int) *Barrier {
	if n < 1 {
		panic(fmt.Sprintf("simgrid: barrier %q needs n >= 1", name))
	}
	return &Barrier{e: e, name: name, n: n}
}

// Arrive blocks until all n participants have arrived, then releases them
// all at the current virtual time. The barrier is reusable.
func (p *Proc) Arrive(b *Barrier) { p.do1(ArriveStep(b)) }

// arrive counts p in. The last arrival schedules every waiter, in arrival
// order, and reports true: it goes on at once. Any other arrival queues p
// and reports false: only the barrier's release schedules it.
func (b *Barrier) arrive(p *Proc) bool {
	b.arrived++
	if b.arrived < b.n {
		b.waiters = append(b.waiters, p)
		return false
	}
	b.arrived = 0
	for _, w := range b.waiters {
		b.e.schedule(b.e.now, w)
	}
	b.waiters = b.waiters[:0]
	return true
}
