package middleware

import (
	"fmt"

	"freerideg/internal/adr"
)

// chunksByCompute is the fault-free chunk placement every run plan starts
// from: compute node j is served by storage node h = j mod n, as client
// number j/n of its k = ceil((c-h)/n) clients, and each storage node deals
// its chunks round-robin to its clients in delivery order, so compute node
// j's list is every k-th chunk of storage node h from its (j/n)-th on.
// One pass over the layout deals every chunk into one backing array, cut
// into per-node views of exact length (cap == len, so an append to one
// list can never run into the next). It needs c >= n.
func chunksByCompute(layout *adr.Layout, n, c int) [][]adr.Chunk {
	chunks := layout.Chunks()
	next := make([]int, n) // per storage node: its chunk count, then its next client
	for _, ch := range chunks {
		next[ch.Home]++
	}
	out := make([][]adr.Chunk, c)
	all := make([]adr.Chunk, len(chunks))
	off := 0
	for j := range out {
		h := j % n
		k := (c - h + n - 1) / n
		m := (next[h] - j/n + k - 1) / k
		out[j] = all[off : off : off+m]
		off += m
	}
	for h := range next {
		next[h] = h
	}
	for _, ch := range chunks {
		h := ch.Home
		j := next[h]
		out[j] = append(out[j], ch)
		if next[h] = j + n; next[h] >= c {
			next[h] = h
		}
	}
	return out
}

// reassignDead is the failover re-partitioner: it re-deals the chunk
// lists of dead compute nodes round-robin onto the survivors. Orphaned
// chunks are collected in ascending dead-node order and dealt to the
// survivors in ascending node order, so the assignment is a pure,
// deterministic function of (base, alive) — every backend and every
// replay derives the identical failover layout. Survivors keep their
// base lists as a prefix; an all-dead alive vector is an error.
func reassignDead[T any](base [][]T, alive []bool) ([][]T, error) {
	var survivors []int
	for j, a := range alive {
		if a {
			survivors = append(survivors, j)
		}
	}
	if len(survivors) == 0 {
		return nil, fmt.Errorf("middleware: fault plan leaves no compute node alive")
	}
	out := make([][]T, len(base))
	var orphans []T
	for j := range base {
		if j < len(alive) && alive[j] {
			out[j] = append([]T(nil), base[j]...)
		} else {
			orphans = append(orphans, base[j]...)
		}
	}
	for i, t := range orphans {
		s := survivors[i%len(survivors)]
		out[s] = append(out[s], t)
	}
	return out, nil
}
