package simgrid

import (
	"testing"
	"time"
)

// calendarDelay decodes bits 2–4 of an op byte into a delay: half of the
// values are 0, a tie with the current instant, and the rest 1–4 ms, so
// future events tie with each other as well.
func calendarDelay(b byte) time.Duration {
	return time.Duration(max(int(b>>2&7)-3, 0)) * time.Millisecond
}

// FuzzCalendarOrder checks the calendar against a reference that keeps
// every scheduled event in a list and takes the least by (time, sequence
// number). Each input byte is one operation on a bare engine, as Run and
// a process's script make them: bits 0–1 pick it, bits 2–4 its delay.
//
//	0, 1: schedule an event at now + delay
//	2:    take the next event and move the clock to it, as Run does
//	3:    a Wait of delay: wake in place if the engine allows it, and
//	      schedule the wake-up otherwise
//
// The engine must take exactly the reference's events in its order, hold
// an event exactly when the reference does, and wake a Wait in place
// exactly when the wake-up, numbered after every scheduled event, would
// be the reference's least. Once the input is spent the calendar is
// drained the same way.
func FuzzCalendarOrder(f *testing.F) {
	const (
		tie   = 0        // schedule at now
		soon  = 4<<2 | 0 // schedule at now + 1 ms
		take  = 2        // take the next event
		wait  = 3        // Wait(0)
		wait1 = 4<<2 | 3 // Wait(1 ms)
	)
	for _, seed := range [][]byte{
		// Two events 1 ms out; the first taken moves the clock onto the
		// second, and an event scheduled then must follow it.
		{soon, soon, take, tie, take, take},
		// An event at now blocks every in-place Wait, even Wait(0).
		{tie, wait, wait1, take, take, take},
		// With only a later event pending, a Wait(0) wakes in place and
		// a Wait that ties with the event is scheduled behind it.
		{soon, wait, wait1, take, take},
		// Same-instant events run in the order they were scheduled.
		{tie, tie, tie, take, tie, take, take, take},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewEngine()
		var ref []event
		// least is the index of the reference's earliest event.
		least := func() int {
			i := 0
			for k := range ref {
				if ref[k].before(ref[i]) {
					i = k
				}
			}
			return i
		}
		schedule := func(at time.Duration) {
			e.schedule(at, nil)
			ref = append(ref, event{at: at, seq: e.seq})
		}
		takeNext := func(op int) {
			got := e.next()
			i := least()
			want := ref[i]
			ref = append(ref[:i], ref[i+1:]...)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("op %d: took event (%v, #%d), want (%v, #%d)", op, got.at, got.seq, want.at, want.seq)
			}
			if got.at < e.now {
				t.Fatalf("op %d: took an event at %v, before the clock at %v", op, got.at, e.now)
			}
			e.now = got.at
		}
		for op, b := range data {
			if e.pending() != (len(ref) > 0) {
				t.Fatalf("op %d: engine pending %v with %d events scheduled", op, e.pending(), len(ref))
			}
			switch b & 3 {
			case 0, 1:
				schedule(e.now + calendarDelay(b))
			case 2:
				if len(ref) > 0 {
					takeNext(op)
				}
			case 3:
				at := e.now + calendarDelay(b)
				want := len(ref) == 0 || at < ref[least()].at
				seq := e.seq
				if got := e.wakeInPlace(at); got != want {
					t.Fatalf("op %d: Wait to %v woke in place %v, want %v (calendar %v)", op, at, got, want, ref)
				}
				if !want {
					schedule(at)
				} else if e.now != at || e.seq != seq+1 {
					t.Fatalf("op %d: in-place Wait to %v left the clock at %v and took %d sequence numbers",
						op, at, e.now, e.seq-seq)
				}
			}
		}
		for op := len(data); len(ref) > 0; op++ {
			if !e.pending() {
				t.Fatalf("drain: engine empty with %d events scheduled", len(ref))
			}
			takeNext(op)
		}
		if e.pending() {
			t.Fatal("drain: engine holds an event the reference does not")
		}
	})
}
