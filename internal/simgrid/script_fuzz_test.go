package simgrid

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// tieOp is one call of a generated process.
type tieOp struct {
	kind   tieKind
	d      time.Duration // tieWait
	i      int           // resource, barrier or mailbox index
	cutAft bool          // in the scripted run, end the script after this op
}

type tieKind uint8

const (
	tieWait tieKind = iota
	tieAcquire
	tieRelease
	tieArrive
	tiePut
	tieGet
	tieFail
)

// tieProgram decodes data into 2–5 processes of 1–12 calls each. The
// first byte picks the process count; per process, one byte picks its
// length and one byte each call: bits 0–2 the kind, bits 3–4 an argument
// a, bit 5 whether the scripted run cuts its script after the call.
//
//	kind 0, 1: Wait(a ms)           kind 4: Arrive(barrier of size a%3+1)
//	kind 2:    Acquire(r[a%3])      kind 5: Put(m[a%2])
//	kind 3:    Release(the last     kind 6: Get(m[a%2])
//	           resource acquired,   kind 7: Fail if a = 3, else Wait(a ms)
//	           or r0 if a = 3 and
//	           none is held)
//
// Resources r0 and r1 have capacity 1, r2 capacity 2. A process releases
// what it still holds after its last decoded call. Missing bytes read
// as zero.
func tieProgram(data []byte) [][]tieOp {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	procs := make([][]tieOp, 2+int(next())%4)
	for pi := range procs {
		var ops []tieOp
		var held []int
		for n := 1 + int(next())%12; n > 0; n-- {
			b := next()
			a := int(b>>3) & 3
			op := tieOp{cutAft: b&32 != 0}
			switch b & 7 {
			case 0, 1:
				op.kind, op.d = tieWait, time.Duration(a)*time.Millisecond
			case 2:
				op.kind, op.i = tieAcquire, a%3
				held = append(held, op.i)
			case 3:
				switch {
				case len(held) > 0:
					op.kind, op.i = tieRelease, held[len(held)-1]
					held = held[:len(held)-1]
				case a == 3:
					op.kind = tieRelease // of an idle resource: the run fails
				default:
					continue
				}
			case 4:
				op.kind, op.i = tieArrive, a%3
			case 5:
				op.kind, op.i = tiePut, a%2
			case 6:
				op.kind, op.i = tieGet, a%2
			case 7:
				if a == 3 {
					op.kind = tieFail
				} else {
					op.kind, op.d = tieWait, time.Duration(a)*time.Millisecond
				}
			}
			ops = append(ops, op)
		}
		for k := len(held) - 1; k >= 0; k-- {
			ops = append(ops, tieOp{kind: tieRelease, i: held[k]})
		}
		procs[pi] = ops
	}
	return procs
}

// tieDone is the completion of call k of process p at virtual time at.
type tieDone struct {
	p, k int
	at   time.Duration
}

// tieRun is what one run of a program shows: the completion of each
// call its process saw return, in order, the run's events, final clock
// and error, and every resource's busy time, which integrates each
// hold's exact start and end. A direct run also records when each call
// was made.
type tieRun struct {
	log      []tieDone
	events   uint64
	switches uint64
	now      time.Duration
	err      string
	busy     []time.Duration
	made     map[[2]int]time.Duration // direct: process, call → virtual time of the call
}

// tieMode is how a run makes a program's calls.
type tieMode uint8

const (
	// tieDirect makes every call itself.
	tieDirect tieMode = iota
	// tieScripted hands the Wait, Acquire, Release and Arrive calls to Do
	// in scripts cut after every call marked cutAft, before every Put,
	// Get and Fail, and at the end. A scripted call is logged only when
	// it ends its script: only then does its process see it return.
	tieScripted
	// tieMerged makes every call itself but takes each run of
	// back-to-back Waits as one Wait of their sum, logged as the last.
	tieMerged
)

func runTieProgram(procs [][]tieOp, mode tieMode) tieRun {
	e := NewEngine()
	res := []*Resource{e.NewResource("r0", 1), e.NewResource("r1", 1), e.NewResource("r2", 2)}
	bars := []*Barrier{e.NewBarrier("b1", 1), e.NewBarrier("b2", 2), e.NewBarrier("b3", 3)}
	boxes := []*Mailbox{e.NewMailbox("m0"), e.NewMailbox("m1")}
	run := tieRun{made: make(map[[2]int]time.Duration)}
	for pi, ops := range procs {
		e.Spawn(fmt.Sprintf("p%d", pi), func(p *Proc) {
			mark := func(k int) { run.log = append(run.log, tieDone{pi, k, p.Now()}) }
			var script []Step
			flush := func(k int) {
				if len(script) > 0 {
					p.Do(script)
					script = script[:0]
					mark(k)
				}
			}
			for k := 0; k < len(ops); k++ {
				op := ops[k]
				if mode == tieDirect {
					run.made[[2]int{pi, k}] = p.Now()
				}
				var s Step
				switch op.kind {
				case tieWait:
					s = WaitStep(op.d)
					if mode == tieMerged {
						for k+1 < len(ops) && ops[k+1].kind == tieWait {
							k++
							s.d += ops[k].d
						}
					}
				case tieAcquire:
					s = AcquireStep(res[op.i])
				case tieRelease:
					s = ReleaseStep(res[op.i])
				case tieArrive:
					s = ArriveStep(bars[op.i])
				default:
					flush(k - 1)
					switch op.kind {
					case tiePut:
						boxes[op.i].Put(k)
					case tieGet:
						p.Get(boxes[op.i])
					case tieFail:
						p.Fail(fmt.Errorf("p%d fails at call %d", pi, k))
					}
					mark(k)
					continue
				}
				if mode == tieScripted {
					script = append(script, s)
					if op.cutAft {
						flush(k)
					}
					continue
				}
				switch s.op {
				case stepWait:
					p.Wait(s.d)
				case stepAcquire:
					p.Acquire(s.r)
				case stepRelease:
					p.Release(s.r)
				case stepArrive:
					p.Arrive(s.b)
				}
				mark(k)
			}
			flush(len(ops) - 1)
		})
	}
	if err := e.Run(); err != nil {
		run.err = err.Error()
	}
	run.events, run.switches, run.now = e.Events(), e.Switches(), e.Now()
	for _, r := range res {
		run.busy = append(run.busy, r.BusyTime())
	}
	return run
}

// mergeMayReorder reports whether taking back-to-back Waits as one may
// reorder the direct run. A process that waits a, then b from time t
// schedules its wake-up at t+a+b when it resumes at t+a; the merged Wait
// schedules it at t, so it takes an earlier sequence number. Sequence
// numbers order only events at the same virtual time, so the two can
// differ only if another process, while the chain runs (from t to its
// last Wait's call), schedules a wake-up for exactly the chain's end: a
// Wait that ends there, or a Release, Arrive or Put made there.
func mergeMayReorder(procs [][]tieOp, direct tieRun) bool {
	wake := func(q, k int) (time.Duration, bool) {
		s, made := direct.made[[2]int{q, k}]
		switch op := procs[q][k]; {
		case !made:
			return 0, false
		case op.kind == tieWait:
			return s + op.d, true
		case op.kind == tieRelease || op.kind == tieArrive || op.kind == tiePut:
			return s, true
		}
		return 0, false
	}
	for pi, ops := range procs {
		for k0 := 0; k0 < len(ops); k0++ {
			t, made := direct.made[[2]int{pi, k0}]
			if ops[k0].kind != tieWait || !made || k0+1 == len(ops) || ops[k0+1].kind != tieWait {
				continue
			}
			last := t
			k1 := k0
			for ; k1+1 < len(ops) && ops[k1+1].kind == tieWait; k1++ {
				last += ops[k1].d
			}
			end := last + ops[k1].d
			for q := range procs {
				for k := range procs[q] {
					if s, ok := direct.made[[2]int{q, k}]; ok && q != pi && t <= s && s <= last {
						if w, ok := wake(q, k); ok && w == end {
							return true
						}
					}
				}
			}
			k0 = k1
		}
	}
	return false
}

// matchesDirect checks that got's completion log is the direct run's
// (want's) restricted to the calls got logs, and that both runs end
// alike.
func matchesDirect(t *testing.T, procs [][]tieOp, name string, got, want tieRun) {
	t.Helper()
	logged := make(map[[2]int]bool)
	for _, d := range got.log {
		logged[[2]int{d.p, d.k}] = true
	}
	var wantLog []tieDone
	for _, d := range want.log {
		if logged[[2]int{d.p, d.k}] {
			wantLog = append(wantLog, d)
		}
	}
	if !reflect.DeepEqual(got.log, wantLog) {
		t.Errorf("%v\n%s completions %v\ndirect completions %v", procs, name, got.log, wantLog)
	}
	if got.now != want.now || got.err != want.err {
		t.Errorf("%v\n%s: clock %v, error %q\ndirect: clock %v, error %q",
			procs, name, got.now, got.err, want.now, want.err)
	}
	if !reflect.DeepEqual(got.busy, want.busy) {
		t.Errorf("%v\n%s busy times %v, direct %v", procs, name, got.busy, want.busy)
	}
}

// FuzzScriptTieOrder proves that a script is its calls made one by one,
// and says when back-to-back Waits taken as one are not. Each generated
// program runs with every call made directly, with its calls cut into
// scripts at the program's cut points, and with each run of back-to-back
// Waits merged into one. A run's completion log must be the direct run's
// restricted to the calls it logs (same virtual times, same interleaving
// of processes), and it must end at the same clock with the same deadlock
// or failure message and leave every resource with the same busy time.
// The scripted run must also take exactly the direct run's events, and
// switch at most once per event where the direct run switches once for
// each. The merged run must agree unless mergeMayReorder detects the one
// condition under which it may not.
func FuzzScriptTieOrder(f *testing.F) {
	for _, seed := range [][]byte{
		// p0 arrives at b2 first; p1 arrives last and waits 0 in the
		// same script: the released p0 was scheduled first, so it runs
		// first.
		{0, 0, 12, 1, 12, 0},
		// Two processes contend for r0, with tied waits around the holds.
		{0, 3, 2, 8, 3, 8, 3, 2, 8, 3, 0},
		// A Put wakes a Get, and the sender's Wait(0) right after ties
		// with the wake-up.
		{0, 0, 6, 1, 5, 32, 0},
		// A script's Wait parks, and the event that ends it runs on into
		// a release of an idle resource.
		{0, 1, 8, 27, 0, 8},
		// Three arrive at b3 between waits, and one fails.
		{1, 2, 20, 8, 16, 2, 8, 20, 0, 1, 20, 31},
		// p0 waits 1 ms then 2 ms; p1 waits 3 ms from the same instant,
		// scheduled between the two: merged, p0 wakes first at 3 ms.
		{0, 1, 8, 16, 0, 24},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		procs := tieProgram(data)
		direct := runTieProgram(procs, tieDirect)
		scripted := runTieProgram(procs, tieScripted)
		matchesDirect(t, procs, "scripted", scripted, direct)
		if scripted.events != direct.events {
			t.Errorf("%v\nscripted: %d events, direct %d", procs, scripted.events, direct.events)
		}
		if direct.switches != direct.events || scripted.switches > scripted.events {
			t.Errorf("%v\n%d switches for %d events direct, %d for %d scripted",
				procs, direct.switches, direct.events, scripted.switches, scripted.events)
		}
		if !mergeMayReorder(procs, direct) {
			matchesDirect(t, procs, "merged", runTieProgram(procs, tieMerged), direct)
		}
	})
}
