package adr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"freerideg/internal/units"
)

func pointsSpec(total units.Bytes) DatasetSpec {
	return DatasetSpec{
		Name:       "pts",
		TotalBytes: total,
		ElemBytes:  128,
		ChunkBytes: units.MB,
		Kind:       "points",
		Dims:       16,
		Seed:       1,
	}
}

func TestSpecValidate(t *testing.T) {
	good := pointsSpec(64 * units.MB)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []DatasetSpec{
		{},
		{Name: "x", TotalBytes: -1, ElemBytes: 8, ChunkBytes: 64, Dims: 1},
		{Name: "x", TotalBytes: 64, ElemBytes: 0, ChunkBytes: 64, Dims: 1},
		{Name: "x", TotalBytes: 64, ElemBytes: 32, ChunkBytes: 16, Dims: 1},
		{Name: "x", TotalBytes: 64, ElemBytes: 8, ChunkBytes: 64, Dims: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestPartitionCoversDataset(t *testing.T) {
	spec := pointsSpec(10*units.MB + 300) // deliberately ragged
	l, err := Partition(spec, 4, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	var elems int64
	var bytes units.Bytes
	for _, c := range l.Chunks() {
		elems += c.Elems
		bytes += c.Bytes
	}
	if elems != spec.Elems() {
		t.Errorf("chunks hold %d elems, spec has %d", elems, spec.Elems())
	}
	if bytes != units.Bytes(spec.Elems())*spec.ElemBytes {
		t.Errorf("chunk bytes %v != whole-element bytes", bytes)
	}
}

func TestPartitionChunkSizes(t *testing.T) {
	spec := pointsSpec(10 * units.MB)
	l, err := Partition(spec, 2, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	chunks := l.Chunks()
	for i, c := range chunks[:len(chunks)-1] {
		if c.Bytes != units.MB {
			t.Errorf("chunk %d = %v, want exactly 1MB", i, c.Bytes)
		}
	}
	if last := chunks[len(chunks)-1]; last.Bytes > units.MB {
		t.Errorf("final chunk %v exceeds chunk size", last.Bytes)
	}
}

func TestRoundRobinBalance(t *testing.T) {
	spec := pointsSpec(64 * units.MB)
	for _, nodes := range []int{1, 2, 3, 4, 7, 8} {
		l, err := Partition(spec, nodes, RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		min, max := int(^uint(0)>>1), 0
		for n := 0; n < nodes; n++ {
			got := len(l.NodeChunks(n))
			if got < min {
				min = got
			}
			if got > max {
				max = got
			}
		}
		if max-min > 1 {
			t.Errorf("nodes=%d: chunk counts spread %d..%d, want within 1", nodes, min, max)
		}
	}
}

func TestBlockedAssignsContiguousRuns(t *testing.T) {
	spec := pointsSpec(8 * units.MB)
	l, err := Partition(spec, 2, Blocked)
	if err != nil {
		t.Fatal(err)
	}
	prevHome := -1
	for _, c := range l.Chunks() {
		if c.Home < prevHome {
			t.Fatalf("blocked layout went backwards at chunk %d (home %d after %d)", c.Index, c.Home, prevHome)
		}
		prevHome = c.Home
	}
	if got := len(l.NodeChunks(0)); got != 4 {
		t.Errorf("node 0 holds %d chunks, want 4", got)
	}
}

func TestNodeChunksOutOfRange(t *testing.T) {
	spec := pointsSpec(4 * units.MB)
	l, err := Partition(spec, 2, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if l.NodeChunks(-1) != nil || l.NodeChunks(2) != nil {
		t.Error("out-of-range node returned chunks")
	}
}

func TestMaxNodeBytes(t *testing.T) {
	spec := pointsSpec(5 * units.MB) // 5 chunks over 2 nodes: 3 vs 2
	l, err := Partition(spec, 2, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := l.MaxNodeBytes(), 3*units.MB; got != want {
		t.Errorf("MaxNodeBytes = %v, want %v", got, want)
	}
	if got := l.NodeBytes(1); got != 2*units.MB {
		t.Errorf("NodeBytes(1) = %v, want 2MB", got)
	}
}

func TestPartitionErrors(t *testing.T) {
	spec := pointsSpec(4 * units.MB)
	if _, err := Partition(spec, 0, RoundRobin); err == nil {
		t.Error("0 nodes accepted")
	}
	tiny := spec
	tiny.TotalBytes = 10 // below one element
	if _, err := Partition(tiny, 1, RoundRobin); err == nil {
		t.Error("dataset smaller than one element accepted")
	}
	if _, err := Partition(spec, 1, DeclusterPolicy(99)); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestPartitionPropertyAllElementsAssignedOnce(t *testing.T) {
	f := func(mb uint8, nodes uint8) bool {
		n := int(nodes%8) + 1
		spec := pointsSpec(units.Bytes(int(mb%32)+1) * units.MB)
		l, err := Partition(spec, n, RoundRobin)
		if err != nil {
			return false
		}
		var perNode int64
		for node := 0; node < n; node++ {
			for _, c := range l.NodeChunks(node) {
				perNode += c.Elems
			}
		}
		return perNode == spec.Elems()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestRegistryRegisterAndLookup(t *testing.T) {
	spec := pointsSpec(4 * units.MB)
	l1, _ := Partition(spec, 2, RoundRobin)
	l2, _ := Partition(spec, 4, RoundRobin)
	reg := NewRegistry()
	if err := reg.Register(Replica{Site: "siteB", Cluster: "pentium", StorageNodes: 2, Layout: l1}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(Replica{Site: "siteA", Cluster: "opteron", StorageNodes: 4, Layout: l2}); err != nil {
		t.Fatal(err)
	}
	reps := reg.Replicas("pts")
	if len(reps) != 2 {
		t.Fatalf("got %d replicas, want 2", len(reps))
	}
	if reps[0].Site != "siteA" || reps[1].Site != "siteB" {
		t.Errorf("replicas not sorted by site: %v, %v", reps[0].Site, reps[1].Site)
	}
	if ds := reg.Datasets(); len(ds) != 1 || ds[0] != "pts" {
		t.Errorf("Datasets() = %v, want [pts]", ds)
	}
}

func TestRegistryRejectsBadReplicas(t *testing.T) {
	spec := pointsSpec(4 * units.MB)
	l, _ := Partition(spec, 2, RoundRobin)
	reg := NewRegistry()
	if err := reg.Register(Replica{Site: "s", StorageNodes: 2}); err == nil {
		t.Error("replica without layout accepted")
	}
	if err := reg.Register(Replica{StorageNodes: 2, Layout: l}); err == nil {
		t.Error("replica without site accepted")
	}
	if err := reg.Register(Replica{Site: "s", StorageNodes: 3, Layout: l}); err == nil {
		t.Error("node-count mismatch accepted")
	}
	if err := reg.Register(Replica{Site: "s", StorageNodes: 2, Layout: l}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(Replica{Site: "s", StorageNodes: 2, Layout: l}); err == nil {
		t.Error("duplicate site accepted")
	}
}

func TestRegistryUnknownDatasetEmpty(t *testing.T) {
	reg := NewRegistry()
	if got := reg.Replicas("nope"); len(got) != 0 {
		t.Errorf("unknown dataset returned %d replicas", len(got))
	}
}
