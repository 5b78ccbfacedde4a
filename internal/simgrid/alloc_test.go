package simgrid

import (
	"testing"
	"time"
)

// TestWaitResumeAllocFree is the allocation regression gate for the
// engine's hottest path: a steady-state Wait/resume cycle must not touch
// the heap. Fixed per-simulation setup costs (engine, goroutine, Proc
// struct and its place on the process list, heap growth) are cancelled
// out by differencing a short run against a long one.
func TestWaitResumeAllocFree(t *testing.T) {
	run := func(waits int) float64 {
		return testing.AllocsPerRun(20, func() {
			e := NewEngine()
			e.Spawn("clock", func(p *Proc) {
				for i := 0; i < waits; i++ {
					p.Wait(time.Microsecond)
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const extra = 2000
	base := run(10)
	long := run(10 + extra)
	perWait := (long - base) / extra
	if perWait > 0.001 {
		t.Errorf("Wait/resume cycle allocates %.4f objects per event, want 0 "+
			"(short run %.1f allocs, long run %.1f)", perWait, base, long)
	}
}

// TestBlockedReasonsStayLazy checks that parking on resources, mailboxes,
// and barriers does not allocate per block either — the reasons are only
// rendered when a deadlock report needs them.
func TestBlockedReasonsStayLazy(t *testing.T) {
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
