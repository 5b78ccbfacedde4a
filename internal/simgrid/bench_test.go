package simgrid

import (
	"testing"
	"time"
)

// BenchmarkWaitResume measures the bare cost of one calendar event: a
// process waiting on the virtual clock, switching to the engine and being
// switched back into. Two processes take turns so every Wait parks; a lone
// process would time only the inline path, where a Wait that is the next
// event moves the clock without a switch.
func BenchmarkWaitResume(b *testing.B) {
	b.ReportAllocs()
	alternate(b, b.N/2+1, time.Microsecond)
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
// short-lived processes: each Spawn allocates its Proc and its coroutine
// (iter.Pull's state, closures and goroutine; 13 allocations in all, capped
// by TestSpawnAllocs), and the Proc stays on the engine's process list.
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
