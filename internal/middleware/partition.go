package middleware

import (
	"fmt"

	"freerideg/internal/adr"
)

// serveClients returns, for each of n storage nodes, the compute nodes it
// serves in ascending order: compute node j is served by storage node
// j mod n.
func serveClients(n, c int) [][]int {
	clients := make([][]int, n)
	for j := 0; j < c; j++ {
		clients[j%n] = append(clients[j%n], j)
	}
	return clients
}

// chunksByCompute is the fault-free chunk placement every run plan starts
// from: each storage node hands its chunks round-robin to its clients, so
// compute node j's list is every k-th chunk of storage node j mod n
// (k clients), in delivery order. Each list is made once at its exact
// length.
func chunksByCompute(layout *adr.Layout, n, c int) [][]adr.Chunk {
	out := make([][]adr.Chunk, c)
	for dn, cl := range serveClients(n, c) {
		chunks := layout.NodeChunks(dn)
		for q, j := range cl {
			out[j] = make([]adr.Chunk, 0, (len(chunks)-q+len(cl)-1)/len(cl))
			for i := q; i < len(chunks); i += len(cl) {
				out[j] = append(out[j], chunks[i])
			}
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

// passAssignments precomputes each pass's per-node chunk assignment
// under the schedule's crash faults: passes where everyone is alive
// share the base assignment, later passes re-deal the accumulated dead
// nodes' chunks via reassignDead. Errors if any pass is left without a
// surviving compute node.
func passAssignments[T any](base [][]T, sched *faultSchedule, passes int) ([][][]T, error) {
	out := make([][][]T, passes)
	for p := 0; p < passes; p++ {
		alive := sched.aliveAt(p)
		all := true
		for _, a := range alive {
			if !a {
				all = false
				break
			}
		}
		if alive == nil || all {
			out[p] = base
			continue
		}
		a, err := reassignDead(base, alive)
		if err != nil {
			return nil, fmt.Errorf("middleware: pass %d: %w", p, err)
		}
		out[p] = a
	}
	return out, nil
}
