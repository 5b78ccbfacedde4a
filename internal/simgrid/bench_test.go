package simgrid

import (
	"testing"
	"time"
)

// BenchmarkWaitResume measures the bare cost of one calendar event: a
// process waiting on the virtual clock and being resumed by the engine.
func BenchmarkWaitResume(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Spawn("clock", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(time.Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineEventLoop measures scheduler dispatch under contention:
// eight processes time-share one resource and exchange messages, the
// shape of the middleware's data-server/compute-node interaction.
func BenchmarkEngineEventLoop(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	const workers = 8
	res := e.NewResource("disk", 1)
	barr := e.NewBarrier("round", workers)
	rounds := b.N/workers + 1
	for w := 0; w < workers; w++ {
		e.Spawn("worker", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Use(res, time.Microsecond)
				p.Arrive(barr)
			}
		})
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawn measures process creation and teardown across
// short-lived processes: each Spawn allocates its Proc, resume channel and
// goroutine closure, and the Proc stays on the engine's process list.
func BenchmarkSpawn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Spawn("parent", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			e.Spawn("child", func(c *Proc) {
				c.Wait(time.Microsecond)
			})
			p.Wait(2 * time.Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
