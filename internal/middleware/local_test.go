package middleware

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"freerideg/internal/adr"
	"freerideg/internal/apps"
	"freerideg/internal/apps/defect"
	"freerideg/internal/apps/kmeans"
	"freerideg/internal/apps/knn"
	"freerideg/internal/apps/vortex"
	"freerideg/internal/reduction"
	"freerideg/internal/units"
)

func localSpec(kind string) adr.DatasetSpec {
	spec := adr.DatasetSpec{
		Name:       "local-" + kind,
		ChunkBytes: 128 * units.KB,
		Kind:       kind,
		Seed:       23,
	}
	switch kind {
	case "points":
		spec.TotalBytes = units.MB
		spec.ElemBytes = 128
		spec.Dims = 16
	case "field":
		spec.TotalBytes = units.MB
		spec.ElemBytes = 16
		spec.Dims = 2
	case "lattice":
		spec.TotalBytes = units.MB
		spec.ElemBytes = 24
		spec.Dims = 3
	case "transactions":
		spec.TotalBytes = units.MB
		spec.ElemBytes = 96
		spec.Dims = 12
	}
	return spec
}

// localShape is one node shape of the goroutine backend: data and
// compute node counts plus the threads per compute node and how they
// share the node's reduction object.
type localShape struct {
	data, compute, threads int
	strategy               ShmStrategy
}

func (s localShape) String() string {
	return fmt.Sprintf("%d-%dx%d-%v", s.data, s.compute, s.threads, s.strategy)
}

func (s localShape) opts() LocalOptions {
	return LocalOptions{Threads: s.threads, Strategy: s.strategy}
}

func (s localShape) run(k reduction.Kernel, spec adr.DatasetSpec) (LocalResult, error) {
	return RunLocalOpts(k, spec, s.data, s.compute, s.opts())
}

// localShapes spans the backend's node shapes: distributed memory
// (one thread per node), clusters of SMPs under both sharing strategies,
// and a single SMP node.
var localShapes = []localShape{
	{2, 4, 1, FullReplication},
	{2, 2, 3, FullReplication},
	{2, 2, 3, FullLocking},
	{2, 4, 2, FullLocking},
	{1, 1, 4, FullReplication},
	{1, 1, 4, FullLocking},
}

func TestShmStrategyStrings(t *testing.T) {
	if FullReplication.String() != "full-replication" || FullLocking.String() != "full-locking" {
		t.Error("strategy strings changed")
	}
	if ShmStrategy(7).String() == "" {
		t.Error("unknown strategy string empty")
	}
}

func TestRunLocalValidatesNodeCounts(t *testing.T) {
	spec := localSpec("points")
	a, _ := apps.Get("kmeans")
	k, _ := a.NewKernel(spec)
	if _, err := RunLocal(k, spec, 0, 1); err == nil {
		t.Error("0 data nodes accepted")
	}
	if _, err := RunLocal(k, spec, 4, 2); err == nil {
		t.Error("compute < data accepted")
	}
}

// TestShmValidation checks option validation on one SMP node (1-1).
func TestShmValidation(t *testing.T) {
	spec := localSpec("points")
	bogus := spec
	bogus.Kind = "bogus"
	for _, tc := range []struct {
		name string
		spec adr.DatasetSpec
		opts LocalOptions
	}{
		{"unknown strategy", spec, LocalOptions{Threads: 2, Strategy: ShmStrategy(9)}},
		{"bogus dataset", bogus, LocalOptions{Threads: 2}},
		{"negative threads", spec, LocalOptions{Threads: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := RunLocalOpts(kmeansKernel(t, spec), tc.spec, 1, 1, tc.opts); err == nil {
				t.Errorf("%+v accepted", tc.opts)
			}
		})
	}
}

// TestRunLocalSMPValidation checks validation on a cluster of SMP nodes.
func TestRunLocalSMPValidation(t *testing.T) {
	spec := localSpec("points")
	k := kmeansKernel(t, spec)
	if _, err := RunLocalOpts(k, spec, 4, 2, LocalOptions{Threads: 2}); err == nil {
		t.Error("compute < data accepted with 2 threads")
	}
	if _, err := RunLocalOpts(k, spec, 2, 2, LocalOptions{Threads: 2, Strategy: ShmStrategy(9)}); err == nil {
		t.Error("unknown strategy accepted")
	}
	bad := spec
	bad.Kind = "bogus"
	if _, err := RunLocalOpts(k, bad, 2, 2, LocalOptions{Threads: 2}); err == nil {
		t.Error("bogus dataset accepted")
	}
}

func TestRunLocalAllAppsProduceValidProfiles(t *testing.T) {
	for _, shape := range localShapes {
		t.Run(shape.String(), func(t *testing.T) {
			for _, name := range apps.Names() {
				a, err := apps.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				spec := localSpec(a.DatasetKind)
				k, err := a.NewKernel(spec)
				if err != nil {
					t.Fatal(err)
				}
				res, err := shape.run(k, spec)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := res.Profile.Validate(); err != nil {
					t.Errorf("%s: invalid profile: %v", name, err)
				}
				if res.Profile.ROBytesPerNode <= 0 {
					t.Errorf("%s: no reduction object size recorded", name)
				}
				if res.Iterations < 1 {
					t.Errorf("%s: %d iterations", name, res.Iterations)
				}
			}
		})
	}
}

func TestRunLocalKMeansMatchesSequential(t *testing.T) {
	spec := localSpec("points")
	seqK, err := kmeans.New(spec, kmeans.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.RunSequential(seqK, spec); err != nil {
		t.Fatal(err)
	}
	for _, shape := range localShapes {
		t.Run(shape.String(), func(t *testing.T) {
			parK, _ := kmeans.New(spec, kmeans.DefaultParams())
			if _, err := shape.run(parK, spec); err != nil {
				t.Fatal(err)
			}
			for ci := range seqK.Centers() {
				for j := range seqK.Centers()[ci] {
					s, p := seqK.Centers()[ci][j], parK.Centers()[ci][j]
					if math.Abs(s-p) > 1e-6*(math.Abs(s)+1) {
						t.Fatalf("center %d dim %d differs: sequential %v vs parallel %v", ci, j, s, p)
					}
				}
			}
		})
	}
}

func TestRunLocalKNNExact(t *testing.T) {
	spec := localSpec("points")
	seqK, _ := knn.New(spec, knn.Params{K: 8, Queries: 4})
	if err := apps.RunSequential(seqK, spec); err != nil {
		t.Fatal(err)
	}
	for _, shape := range localShapes {
		t.Run(shape.String(), func(t *testing.T) {
			parK, _ := knn.New(spec, knn.Params{K: 8, Queries: 4})
			if _, err := shape.run(parK, spec); err != nil {
				t.Fatal(err)
			}
			for qi := range seqK.Result().Lists {
				s, p := seqK.Result().Lists[qi], parK.Result().Lists[qi]
				if len(s) != len(p) {
					t.Fatalf("query %d: %d vs %d neighbours", qi, len(s), len(p))
				}
				for i := range s {
					if s[i].Dist != p[i].Dist {
						t.Fatalf("query %d rank %d: %v vs %v", qi, i, s[i], p[i])
					}
				}
			}
		})
	}
}

// failingKernel fails every chunk it is handed.
type failingKernel struct{ reduction.Kernel }

func (failingKernel) ProcessChunk(reduction.Payload, reduction.Object) error {
	return errors.New("chunk rejected")
}

// A first pass whose compute servers fail must not strand the data
// servers on sends nobody will receive: the run has to return, and every
// goroutine it started has to exit.
func TestRunLocalReleasesGoroutinesOnKernelFailure(t *testing.T) {
	spec := localSpec("points")
	for _, threads := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			before := runtime.NumGoroutine()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 5; i++ {
					k := failingKernel{kmeansKernel(t, spec)}
					if _, err := RunLocalOpts(k, spec, 1, 2, LocalOptions{Threads: threads}); err == nil {
						t.Error("failing kernel reported success")
					}
				}
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("runs with a failing kernel did not return")
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines before five failed runs, %d after", before, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

func TestRunLocalVortexMatchesSequential(t *testing.T) {
	spec := localSpec("field")
	seqK, _ := vortex.New(spec, vortex.DefaultParams())
	if err := apps.RunSequential(seqK, spec); err != nil {
		t.Fatal(err)
	}
	parK, _ := vortex.New(spec, vortex.DefaultParams())
	if _, err := RunLocal(parK, spec, 2, 2); err != nil {
		t.Fatal(err)
	}
	if len(seqK.Result()) != len(parK.Result()) {
		t.Fatalf("vortex counts differ: %d vs %d", len(seqK.Result()), len(parK.Result()))
	}
}

func TestRunLocalDefectMatchesSequential(t *testing.T) {
	spec := localSpec("lattice")
	seqK, _ := defect.New(spec, defect.DefaultParams())
	if err := apps.RunSequential(seqK, spec); err != nil {
		t.Fatal(err)
	}
	parK, _ := defect.New(spec, defect.DefaultParams())
	if _, err := RunLocal(parK, spec, 2, 4); err != nil {
		t.Fatal(err)
	}
	if len(seqK.Defects()) != len(parK.Defects()) {
		t.Fatalf("defect counts differ: %d vs %d", len(seqK.Defects()), len(parK.Defects()))
	}
	for class, n := range seqK.Counts() {
		if parK.Counts()[class] != n {
			t.Fatalf("class %d: %d vs %d", class, n, parK.Counts()[class])
		}
	}
}

func TestRunSequentialAllApps(t *testing.T) {
	for _, name := range apps.Names() {
		a, _ := apps.Get(name)
		spec := localSpec(a.DatasetKind)
		k, err := a.NewKernel(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := apps.RunSequential(k, spec); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
