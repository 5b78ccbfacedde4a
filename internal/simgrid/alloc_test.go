package simgrid

import (
	"testing"
	"time"
)

// alternate runs two processes that each wait d, waits times over: equal
// periods make every wake-up tie with, or fall after, the other process's,
// so no Wait takes the inline path and every event is a coroutine switch
// to the engine and back. It fails t if the processes ever stop taking
// turns.
func alternate(t testing.TB, waits int, d time.Duration) {
	e := NewEngine()
	var last *Proc
	body := func(p *Proc) {
		for i := 0; i < waits; i++ {
			p.Wait(d)
			if last == p {
				t.Errorf("%s woke twice in a row: a Wait skipped the switch", p.name)
				return
			}
			last = p
		}
	}
	e.Spawn("ping", body)
	e.Spawn("pong", body)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitResumeZeroAllocs is the allocation regression gate for the
// engine's hottest path: a steady-state Wait that parks and is resumed
// must not touch the heap. Two processes take turns, so every Wait is a
// real switch (a lone process would only measure the inline path). Fixed
// per-simulation setup costs (engine, coroutines, Proc structs and their
// place on the process list, heap growth) are cancelled out by
// differencing a short run against a long one.
func TestWaitResumeZeroAllocs(t *testing.T) {
	run := func(waits int) float64 {
		return testing.AllocsPerRun(20, func() { alternate(t, waits, time.Microsecond) })
	}
	const extra = 1000
	base := run(10)
	long := run(10 + extra)
	perWait := (long - base) / (2 * extra)
	if perWait > 0.001 {
		t.Errorf("Wait/resume cycle allocates %.4f objects per event, want 0 "+
			"(short run %.1f allocs, long run %.1f)", perWait, base, long)
	}
}

// TestSpawnAllocs caps what one process costs the heap: its Proc, its
// coroutine (iter.Pull's state, closures and goroutine) and its place on
// the process list. A sweep spawns one process per compute node plus a
// master per simulation, so a creeping count shows up as peak RSS.
func TestSpawnAllocs(t *testing.T) {
	run := func(children int) float64 {
		return testing.AllocsPerRun(20, func() {
			e := NewEngine()
			for i := 0; i < children; i++ {
				e.Spawn("child", func(c *Proc) { c.Wait(time.Microsecond) })
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const extra = 200
	base := run(8)
	long := run(8 + extra)
	perSpawn := (long - base) / extra
	if perSpawn > 16 {
		t.Errorf("Spawn allocates %.2f objects per process, want <= 16 "+
			"(short run %.1f allocs, long run %.1f)", perSpawn, base, long)
	}
	t.Logf("%.2f allocs per Spawn", perSpawn)
}

// TestBlockedReasonsLazyAllocs checks that parking on resources,
// mailboxes, and barriers does not allocate per block either — the
// reasons are only rendered when a deadlock report needs them.
func TestBlockedReasonsLazyAllocs(t *testing.T) {
	run := func(cycles int) float64 {
		return testing.AllocsPerRun(20, func() {
			e := NewEngine()
			res := e.NewResource("disk", 1)
			box := e.NewMailbox("box")
			e.Spawn("producer", func(p *Proc) {
				for i := 0; i < cycles; i++ {
					p.Use(res, time.Microsecond)
					box.Put(i)
				}
			})
			e.Spawn("consumer", func(p *Proc) {
				for i := 0; i < cycles; i++ {
					p.Use(res, time.Microsecond)
					p.Get(box)
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const extra = 1000
	base := run(10)
	long := run(10 + extra)
	// Each extra cycle is several park/resume events across two processes.
	// Mailbox Put boxes its int payload (one allocation); everything else
	// must be allocation-free, so the budget is ~1 alloc per cycle with
	// slack for the occasional queue-slice growth.
	perCycle := (long - base) / extra
	if perCycle > 1.5 {
		t.Errorf("resource/mailbox cycle allocates %.3f objects, want <= ~1 "+
			"(short run %.1f allocs, long run %.1f)", perCycle, base, long)
	}
}
