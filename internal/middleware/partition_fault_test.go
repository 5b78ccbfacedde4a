package middleware

import (
	"reflect"
	"testing"

	"freerideg/internal/adr"
	"freerideg/internal/simgrid"
	"freerideg/internal/units"
)

// equalLists compares per-node chunk lists element-wise, treating nil
// and empty lists as equal (reassignDead leaves dead and chunkless nodes
// with nil lists).
func equalLists(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if len(a[j]) != len(b[j]) {
			return false
		}
		for i := range a[j] {
			if a[j][i] != b[j][i] {
				return false
			}
		}
	}
	return true
}

func TestReassignDead(t *testing.T) {
	tests := []struct {
		name    string
		base    [][]int
		alive   []bool
		want    [][]int
		wantErr bool
	}{
		{
			name:  "single survivor inherits everything",
			base:  [][]int{{0, 3}, {1, 4}, {2, 5}},
			alive: []bool{true, false, false},
			want:  [][]int{{0, 3, 1, 4, 2, 5}, nil, nil},
		},
		{
			name:  "orphans dealt round-robin in ascending survivor order",
			base:  [][]int{{0}, {1}, {2, 3, 4}},
			alive: []bool{true, true, false},
			want:  [][]int{{0, 2, 4}, {1, 3}, nil},
		},
		{
			name:  "more nodes than chunks: empty lists reassign cleanly",
			base:  [][]int{{0}, {}, {}, {}},
			alive: []bool{false, true, true, true},
			want:  [][]int{nil, {0}, {}, {}},
		},
		{
			name:  "zero chunks everywhere",
			base:  [][]int{{}, {}},
			alive: []bool{true, false},
			want:  [][]int{{}, nil},
		},
		{
			name:  "nobody dead is the identity",
			base:  [][]int{{0, 2}, {1, 3}},
			alive: []bool{true, true},
			want:  [][]int{{0, 2}, {1, 3}},
		},
		{
			name:    "all dead is an error",
			base:    [][]int{{0}, {1}},
			alive:   []bool{false, false},
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := reassignDead(tt.base, tt.alive)
			if tt.wantErr {
				if err == nil {
					t.Fatal("no error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !equalLists(got, tt.want) {
				t.Errorf("reassignDead = %v, want %v", got, tt.want)
			}
			// Survivors keep their base list as a prefix.
			for j, a := range tt.alive {
				if !a {
					continue
				}
				if len(got[j]) < len(tt.base[j]) || !equalLists([][]int{got[j][:len(tt.base[j])]}, [][]int{tt.base[j]}) {
					t.Errorf("survivor %d list %v does not keep base %v as prefix", j, got[j], tt.base[j])
				}
			}
		})
	}
}

// reassignDead is a pure function: repeated invocations on the same
// inputs produce the identical layout (the property every backend's
// determinism rests on), and no chunk is lost or duplicated.
func TestReassignDeadDeterministicAndLossless(t *testing.T) {
	base := [][]int{{0, 4, 8}, {1, 5}, {2, 6, 9, 10}, {3, 7}}
	alive := []bool{false, true, false, true}
	first, err := reassignDead(base, alive)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := reassignDead(base, alive)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d: %v != %v", i, again, first)
		}
	}
	seen := map[int]int{}
	for _, list := range first {
		for _, ch := range list {
			seen[ch]++
		}
	}
	for _, list := range base {
		for _, ch := range list {
			if seen[ch] != 1 {
				t.Errorf("chunk %d appears %d times after reassignment", ch, seen[ch])
			}
			delete(seen, ch)
		}
	}
	if len(seen) != 0 {
		t.Errorf("reassignment invented chunks: %v", seen)
	}
}

// chunkLists turns per-node lists of chunk indexes into chunk lists.
func chunkLists(lists [][]int) [][]adr.Chunk {
	out := make([][]adr.Chunk, len(lists))
	for j, l := range lists {
		for _, i := range l {
			out[j] = append(out[j], adr.Chunk{Index: i})
		}
	}
	return out
}

// indexLists turns per-node chunk lists into lists of chunk indexes.
func indexLists(lists [][]adr.Chunk) [][]int {
	out := make([][]int, len(lists))
	for j, l := range lists {
		for _, ch := range l {
			out[j] = append(out[j], ch.Index)
		}
	}
	return out
}

// The run plan's per-pass assignment under crash faults: passes where
// everyone is alive keep the base assignment, later passes re-deal the
// accumulated dead nodes' chunks via reassignDead.
func TestPassAssignments(t *testing.T) {
	base := [][]int{{0, 3}, {1, 4}, {2, 5}}
	plan := simgrid.FaultPlan{Faults: []simgrid.Fault{
		{Kind: simgrid.FaultCrash, Node: 1, Pass: 1},
		{Kind: simgrid.FaultCrash, Node: 2, Pass: 3},
	}}
	pl, err := newRunPlan(&plan, chunkLists(base), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pl.crashes == nil {
		t.Fatal("crash plan built no fault-injection state")
	}
	assign := make([][][]int, len(pl.work))
	for p, w := range pl.work {
		assign[p] = indexLists(w)
	}
	// Pass 0: everyone alive — the base assignment untouched.
	if !equalLists(assign[0], base) {
		t.Errorf("pass 0 assignment %v, want base %v", assign[0], base)
	}
	// Passes 1-2: node 1 dead, its chunks dealt over nodes 0 and 2.
	want12 := [][]int{{0, 3, 1}, nil, {2, 5, 4}}
	for p := 1; p <= 2; p++ {
		if !equalLists(assign[p], want12) {
			t.Errorf("pass %d assignment %v, want %v", p, assign[p], want12)
		}
	}
	// Pass 3: nodes 1 and 2 dead — node 0 carries the whole dataset.
	want3 := [][]int{{0, 3, 1, 4, 2, 5}, nil, nil}
	if !equalLists(assign[3], want3) {
		t.Errorf("pass 3 assignment %v, want %v", assign[3], want3)
	}
}

// Without a fault plan, or with one whose faults all address nodes the
// run does not have, every pass shares the base lists and the plan holds
// no fault-injection state.
func TestPassAssignmentsNilScheduleSharesBase(t *testing.T) {
	base := chunkLists([][]int{{0}, {1}})
	absent := simgrid.FaultPlan{Faults: []simgrid.Fault{
		{Kind: simgrid.FaultCrash, Node: 2, Pass: 1},
		{Kind: simgrid.FaultFlakyLink, Node: 1, Count: 3},
		{Kind: simgrid.FaultSlowDisk, Node: 1, Factor: 2},
	}}
	for _, plan := range []*simgrid.FaultPlan{nil, &absent} {
		pl, err := newRunPlan(plan, base, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		if pl.steps != nil || pl.crashes != nil {
			t.Errorf("plan %v built fault-injection state", plan)
		}
		for p, w := range pl.work {
			for j := range base {
				if len(w[j]) != 1 || &w[j][0] != &base[j][0] {
					t.Errorf("plan %v: pass %d assignment of node %d is %v, want the base list itself", plan, p, j, w[j])
				}
			}
		}
	}
}

func TestPassAssignmentsAllDeadError(t *testing.T) {
	plan := simgrid.FaultPlan{Faults: []simgrid.Fault{
		{Kind: simgrid.FaultCrash, Node: 0, Pass: 2},
		{Kind: simgrid.FaultCrash, Node: 1, Pass: 1},
	}}
	if _, err := newRunPlan(&plan, chunkLists([][]int{{0}, {1}}), 1, 4); err == nil {
		t.Error("no error for a plan that kills every compute node")
	}
}

// newRunPlan derives a crasher's re-dealt count and discarded prefix
// from its would-be list: its assignment given the nodes already dead
// before its crash pass, so a later crasher's list includes what it
// inherited from an earlier one. A fault-free plan is the base lists and
// nothing more.
func TestNewRunPlanCrashLists(t *testing.T) {
	indexes := func(l []adr.Chunk) []int {
		var out []int
		for _, ch := range l {
			out = append(out, ch.Index)
		}
		return out
	}
	base := chunkLists([][]int{{0, 3}, {1, 4}, {2, 5}})
	plan := simgrid.FaultPlan{Faults: []simgrid.Fault{
		{Kind: simgrid.FaultCrash, Node: 1, Pass: 1, Chunk: 1},
		{Kind: simgrid.FaultCrash, Node: 2, Pass: 3, Chunk: 2},
	}}
	pl, err := newRunPlan(&plan, base, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 dies in pass 1 holding its base list; node 2 dies in pass 3
	// holding its base list plus chunk 4, inherited from node 1.
	want := []crash{{-1, ""},
		{1, "node 1 down, 2 chunks re-dealt to 2 survivors"},
		{3, "node 2 down, 3 chunks re-dealt to 1 survivors"}}
	if !reflect.DeepEqual(pl.crashes, want) {
		t.Errorf("crashes = %v, want %v", pl.crashes, want)
	}
	for j, cp := range []int{1, 1, 3} {
		want := map[int][]int{1: {1}, 2: {2, 5}}[j]
		if j == 0 {
			want = []int{0, 3, 1} // node 0 survives and inherits chunk 1
		}
		if got := indexes(pl.work[cp][j]); !reflect.DeepEqual(got, want) {
			t.Errorf("node %d's pass-%d list %v, want %v", j, cp, got, want)
		}
		if got := pl.crashPass(j) == cp; got != (j > 0) {
			t.Errorf("node %d's pass-%d steps wasted = %v", j, cp, got)
		}
	}
	if got := indexes(pl.work[3][0]); !reflect.DeepEqual(got, []int{0, 3, 1, 4, 2, 5}) {
		t.Errorf("pass 3 work of node 0 = %v, want the whole dataset", got)
	}

	free, err := newRunPlan(nil, base, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if free.steps != nil || free.crashes != nil {
		t.Error("fault-free run built fault-injection state")
	}
	for p := 0; p < 4; p++ {
		if &free.work[p][2][0] != &base[2][0] {
			t.Errorf("fault-free pass %d work of node 2 = %v, want its base list", p, free.work[p][2])
		}
	}
}

// TestChunksByComputeAllocs pins chunksByCompute's allocations to three:
// the per-storage-node counters, the result's index, and one backing
// array that every compute node's list is a view of, at its exact length.
// A list grown by append, or a copy per node, would add allocations that
// scale with the node or chunk count.
func TestChunksByComputeAllocs(t *testing.T) {
	const n, c = 4, 16
	spec := adr.DatasetSpec{
		Name:       "defect",
		TotalBytes: 1843 * units.MB,
		ElemBytes:  24,
		ChunkBytes: 256 * units.KB,
		Kind:       "lattice",
		Dims:       3,
		Seed:       41,
	}
	layout, err := adr.Partition(spec, n, adr.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	for j, cs := range chunksByCompute(layout, n, c) {
		if cap(cs) != len(cs) {
			t.Errorf("compute node %d: %d chunks in a list of capacity %d", j, len(cs), cap(cs))
		}
	}
	allocs := testing.AllocsPerRun(20, func() { chunksByCompute(layout, n, c) })
	if want := 3.0; allocs != want {
		t.Errorf("chunksByCompute of %d chunks, %d-%d: %v allocations, want %v",
			len(layout.Chunks()), n, c, allocs, want)
	}
}
