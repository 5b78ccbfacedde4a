package simgrid

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestResourceSerializesHolders(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("disk", 1)
	ends := map[string]time.Duration{}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("p%d", i)
		e.Spawn(name, func(p *Proc) {
			p.Use(r, time.Second)
			ends[p.Name()] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"p0": time.Second, "p1": 2 * time.Second, "p2": 3 * time.Second}
	for k, v := range want {
		if ends[k] != v {
			t.Errorf("%s finished at %v, want %v", k, ends[k], v)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("link", 1)
	var order []string
	// p0 holds the resource; p1..p3 queue in spawn order.
	e.Spawn("p0", func(p *Proc) {
		p.Acquire(r)
		p.Wait(time.Second)
		p.Release(r)
	})
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("p%d", i)
		e.Spawn(name, func(p *Proc) {
			p.Wait(time.Duration(4-i) * time.Millisecond) // arrive in reverse spawn order
			p.Acquire(r)
			order = append(order, p.Name())
			p.Release(r)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Arrival order was p3 (3ms), p2 (2ms)... wait: 4-i gives p1=3ms, p2=2ms, p3=1ms.
	if got := strings.Join(order, ","); got != "p3,p2,p1" {
		t.Fatalf("grant order %q, want arrival order p3,p2,p1", got)
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("cpu", 2)
	ends := make([]time.Duration, 4)
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Use(r, time.Second)
			ends[i] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Two run in [0,1s], two in [1s,2s].
	if ends[0] != time.Second || ends[1] != time.Second {
		t.Errorf("first pair ended at %v,%v, want 1s,1s", ends[0], ends[1])
	}
	if ends[2] != 2*time.Second || ends[3] != 2*time.Second {
		t.Errorf("second pair ended at %v,%v, want 2s,2s", ends[2], ends[3])
	}
}

func TestResourceBusyTime(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("disk", 1)
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Use(r, 2*time.Second)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.BusyTime() != 6*time.Second {
		t.Fatalf("busy time = %v, want 6s", r.BusyTime())
	}

	// One process holding two resources at once: each counts its own
	// span of the overlap.
	e = NewEngine()
	disk, link := e.NewResource("disk", 1), e.NewResource("link", 1)
	e.Spawn("both", func(p *Proc) {
		p.Acquire(disk)
		p.Wait(time.Second)
		p.Acquire(link)
		p.Wait(2 * time.Second)
		p.Release(disk)
		p.Wait(time.Second)
		p.Release(link)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if disk.BusyTime() != 3*time.Second || link.BusyTime() != 3*time.Second {
		t.Fatalf("busy times disk %v, link %v, want 3s each", disk.BusyTime(), link.BusyTime())
	}

	// Overlapping holders of a capacity-2 resource, the third queueing
	// for the first free unit: holds [0,3], [1,2] and [2,4] sum to 6s.
	e = NewEngine()
	cpu := e.NewResource("cpu", 2)
	e.Spawn("a", func(p *Proc) { p.Use(cpu, 3*time.Second) })
	e.Spawn("b", func(p *Proc) {
		p.Wait(time.Second)
		p.Use(cpu, time.Second)
	})
	e.Spawn("c", func(p *Proc) {
		p.Wait(time.Second)
		p.Use(cpu, 2*time.Second)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if cpu.BusyTime() != 6*time.Second {
		t.Fatalf("capacity-2 busy time = %v, want 6s", cpu.BusyTime())
	}
}

func TestUseReturnsQueueingDelay(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("disk", 1)
	var second time.Duration
	e.Spawn("first", func(p *Proc) { p.Use(r, time.Second) })
	e.Spawn("second", func(p *Proc) {
		second = p.Use(r, time.Second)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if second != 2*time.Second {
		t.Fatalf("second's Use took %v, want 2s (1s queueing + 1s service)", second)
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("x", 1)
	e.Spawn("bad", func(p *Proc) {
		p.Release(r)
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "idle resource") {
		t.Fatalf("Run() = %v, want idle-release error", err)
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewResource with capacity 0 did not panic")
		}
	}()
	NewEngine().NewResource("bad", 0)
}

func TestMailboxDeliversInOrder(t *testing.T) {
	e := NewEngine()
	m := e.NewMailbox("chunks")
	var got []int
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Wait(time.Millisecond)
			m.Put(i)
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, p.Get(m).(int))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d = %d, want %d (order %v)", i, v, i, got)
		}
	}
}

func TestMailboxBlocksUntilPut(t *testing.T) {
	e := NewEngine()
	m := e.NewMailbox("late")
	var when time.Duration
	e.Spawn("consumer", func(p *Proc) {
		p.Get(m)
		when = p.Now()
	})
	e.Spawn("producer", func(p *Proc) {
		p.Wait(5 * time.Second)
		m.Put("x")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if when != 5*time.Second {
		t.Fatalf("consumer resumed at %v, want 5s", when)
	}
}

func TestMailboxMultipleConsumers(t *testing.T) {
	e := NewEngine()
	m := e.NewMailbox("work")
	counts := map[string]int{}
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("c%d", i), func(p *Proc) {
			for j := 0; j < 3; j++ {
				p.Get(m)
				counts[p.Name()]++
			}
		})
	}
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 6; i++ {
			p.Wait(time.Millisecond)
			m.Put(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if counts["c0"]+counts["c1"] != 6 {
		t.Fatalf("consumed %v messages, want 6 total", counts)
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	e := NewEngine()
	b := e.NewBarrier("sync", 3)
	times := make([]time.Duration, 3)
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Wait(time.Duration(i+1) * time.Second)
			p.Arrive(b)
			times[i] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, ts := range times {
		if ts != 3*time.Second {
			t.Fatalf("p%d released at %v, want 3s", i, ts)
		}
	}
}

func TestBarrierIsReusable(t *testing.T) {
	e := NewEngine()
	b := e.NewBarrier("sync", 2)
	var rounds []time.Duration
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for round := 0; round < 3; round++ {
				p.Wait(time.Duration(i+1) * time.Second)
				p.Arrive(b)
				if i == 0 {
					rounds = append(rounds, p.Now())
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{2 * time.Second, 4 * time.Second, 6 * time.Second}
	for i, w := range want {
		if rounds[i] != w {
			t.Fatalf("round %d released at %v, want %v", i, rounds[i], w)
		}
	}
}

func TestBarrierSingleParticipant(t *testing.T) {
	e := NewEngine()
	b := e.NewBarrier("solo", 1)
	e.Spawn("p", func(p *Proc) {
		p.Arrive(b) // must not block
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
