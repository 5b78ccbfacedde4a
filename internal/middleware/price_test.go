package middleware

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"freerideg/internal/adr"
	"freerideg/internal/apps"
	"freerideg/internal/simgrid"
	"freerideg/internal/units"
)

// raggedSpec is a points dataset of two full 8 MB chunks and a short
// tail chunk, so every shape prices the tail apart from the full chunk.
func raggedSpec() adr.DatasetSpec {
	return pointsSpec(20*units.MB + 300*128)
}

// Every chunk's price in a run's table is the per-chunk formula: its
// processing, its send, and its disk read jittered by the run's draw for
// its index, the short tail chunk included. Pass 0's books, sums of
// those prices, agree as well.
func TestPriceTableMatchesFormula(t *testing.T) {
	spec := raggedSpec()
	a, _ := apps.Get("kmeans")
	cost, err := a.Cost(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, nc := range [][2]int{{1, 1}, {2, 3}, {3, 5}} {
		n, c := nc[0], nc[1]
		cfg := config(n, c, spec.TotalBytes)
		_, ex, err := testGrid(t).simulateOpts(cost, spec, cfg, SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		layout, err := adr.Partition(spec, n, adr.RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		chunks := layout.Chunks()
		if tail := chunks[len(chunks)-1]; tail.Bytes >= spec.ChunkBytes {
			t.Fatalf("tail chunk holds %v, want less than a %v chunk", tail.Bytes, spec.ChunkBytes)
		}
		cl := ex.cluster
		rate := cl.CPU.EffectiveRate(cost.Mix)
		jrng := rand.New(rand.NewSource(spec.Seed*1000003 + int64(n)*31 + int64(c)))
		disk, net := make([]time.Duration, n), make([]time.Duration, n)
		comp := make(map[int]time.Duration)
		for _, ch := range chunks {
			proc := units.Seconds(float64(ch.Elems)*cost.OpsPerElem/rate) + cl.ChunkOverhead
			send := cl.NetLatency + cfg.Bandwidth.TransferTime(ch.Bytes)
			base := cl.DiskSeek + cl.EffectiveDiskBW(n).TransferTime(ch.Bytes)
			read := time.Duration(float64(base) * (1 + cl.JitterAmp*(2*jrng.Float64()-1)))
			if got := ex.procTime(ch); got != proc {
				t.Errorf("%d-%d chunk %d (%v): processing %v, formula %v", n, c, ch.Index, ch.Bytes, got, proc)
			}
			if got := ex.sendTime(ch); got != send {
				t.Errorf("%d-%d chunk %d (%v): send %v, formula %v", n, c, ch.Index, ch.Bytes, got, send)
			}
			if got := ex.read[ch.Index]; got != read {
				t.Errorf("%d-%d chunk %d (%v): read %v, formula %v", n, c, ch.Index, ch.Bytes, got, read)
			}
			disk[ch.Home] += read
			net[ch.Home] += send
			comp[ch.Index] = proc
		}
		for dn, s := range ex.books[0].servers {
			if s.disk != disk[dn] || s.net != net[dn] {
				t.Errorf("%d-%d storage node %d booked disk %v, net %v in pass 0, want %v, %v",
					n, c, dn, s.disk, s.net, disk[dn], net[dn])
			}
		}
		for j, nb := range ex.books[0].nodes {
			var want time.Duration
			for _, ch := range ex.work[0][j] {
				want += comp[ch.Index]
			}
			if nb.comp != want {
				t.Errorf("%d-%d compute node %d booked %v of processing in pass 0, want %v", n, c, j, nb.comp, want)
			}
		}
	}
}

// A fault-free run prices its cached passes once: with local-disk
// caching, every cached pass books each node's per-chunk sums of cached
// reads and processing, and the run is the one whose plan details every
// step — a slow disk in the last pass, which reads no storage node, makes
// the workers price each cached chunk on its own.
func TestCachedPassPricedOnce(t *testing.T) {
	spec := raggedSpec()
	a, _ := apps.Get("kmeans")
	cost, err := a.Cost(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Iterations < 3 {
		t.Fatalf("kmeans runs %d passes, want >= 3", cost.Iterations)
	}
	untouched, err := simgrid.ParseFaultPlan(fmt.Sprintf("slow-disk node=0 pass=%d", cost.Iterations-1))
	if err != nil {
		t.Fatal(err)
	}
	for _, nc := range [][2]int{{1, 1}, {2, 3}, {1, 4}} {
		n, c := nc[0], nc[1]
		cfg := config(n, c, spec.TotalBytes)
		res, ex, err := testGrid(t).simulateOpts(cost, spec, cfg, SimOptions{Cache: CacheLocalDisk})
		if err != nil {
			t.Fatal(err)
		}
		if ex.steps != nil {
			t.Fatalf("%d-%d: fault-free run built plan steps", n, c)
		}
		cl := ex.cluster
		for pass := 1; pass < ex.passes; pass++ {
			for j, nb := range ex.books[pass].nodes {
				var cached, comp time.Duration
				for _, ch := range ex.work[pass][j] {
					cached += cl.DiskSeek + cl.DiskBW.TransferTime(ch.Bytes)
					comp += ex.procFormula(ch)
				}
				if nb.cached != cached || nb.comp != comp {
					t.Errorf("%d-%d pass %d node %d booked cached %v, comp %v, want %v, %v",
						n, c, pass, j, nb.cached, nb.comp, cached, comp)
				}
			}
		}
		stepRes, stepEx, err := testGrid(t).simulateOpts(cost, spec, cfg,
			SimOptions{Cache: CacheLocalDisk, Faults: &untouched})
		if err != nil {
			t.Fatal(err)
		}
		if stepEx.steps == nil {
			t.Fatalf("%d-%d: the slow-disk plan built no plan steps", n, c)
		}
		if res.Makespan != stepRes.Makespan || ex.eng.Events() != stepEx.eng.Events() {
			t.Errorf("%d-%d: makespan %v in %d events, per-chunk pricing %v in %d",
				n, c, res.Makespan, ex.eng.Events(), stepRes.Makespan, stepEx.eng.Events())
		}
		if !reflect.DeepEqual(ex.books, stepEx.books) {
			t.Errorf("%d-%d: books %+v, per-chunk pricing %+v", n, c, ex.books, stepEx.books)
		}
	}
}
