// Package apps registers the mining applications — the five the paper
// evaluates plus apriori association mining and artificial neural network
// training, the other examples the paper gives of the middleware's
// application class (Section 2.2) — and provides a sequential reference
// driver used by tests and examples.
package apps

import (
	"fmt"
	"sort"

	"freerideg/internal/adr"
	"freerideg/internal/apps/ann"
	"freerideg/internal/apps/apriori"
	"freerideg/internal/apps/defect"
	"freerideg/internal/apps/em"
	"freerideg/internal/apps/kmeans"
	"freerideg/internal/apps/knn"
	"freerideg/internal/apps/vortex"
	"freerideg/internal/core"
	"freerideg/internal/datagen"
	"freerideg/internal/reduction"
)

// App bundles everything the middleware and the experiment harness need to
// run one application: the real kernel, the analytic cost model, and the
// ground-truth scaling classes.
type App struct {
	// Name identifies the application.
	Name string
	// DatasetKind is the dataset kind the application consumes.
	DatasetKind string
	// NewKernel builds a fresh kernel for a dataset.
	NewKernel func(spec adr.DatasetSpec) (reduction.Kernel, error)
	// Cost builds the analytic work model for a dataset.
	Cost func(spec adr.DatasetSpec) (reduction.CostModel, error)
	// Model holds the paper's scaling classes for the application.
	Model core.AppModel
}

var registry = map[string]App{
	"ann": {
		Name:        "ann",
		DatasetKind: "points",
		NewKernel: func(spec adr.DatasetSpec) (reduction.Kernel, error) {
			return ann.New(spec, ann.DefaultParams())
		},
		Cost: func(spec adr.DatasetSpec) (reduction.CostModel, error) {
			return ann.Cost(spec, ann.DefaultParams())
		},
		Model: ann.Model(),
	},
	"apriori": {
		Name:        "apriori",
		DatasetKind: "transactions",
		NewKernel: func(spec adr.DatasetSpec) (reduction.Kernel, error) {
			return apriori.New(spec, apriori.DefaultParams())
		},
		Cost: func(spec adr.DatasetSpec) (reduction.CostModel, error) {
			return apriori.Cost(spec, apriori.DefaultParams())
		},
		Model: apriori.Model(),
	},
	"kmeans": {
		Name:        "kmeans",
		DatasetKind: "points",
		NewKernel: func(spec adr.DatasetSpec) (reduction.Kernel, error) {
			return kmeans.New(spec, kmeans.DefaultParams())
		},
		Cost: func(spec adr.DatasetSpec) (reduction.CostModel, error) {
			return kmeans.Cost(spec, kmeans.DefaultParams())
		},
		Model: kmeans.Model(),
	},
	"em": {
		Name:        "em",
		DatasetKind: "points",
		NewKernel: func(spec adr.DatasetSpec) (reduction.Kernel, error) {
			return em.New(spec, em.DefaultParams())
		},
		Cost: func(spec adr.DatasetSpec) (reduction.CostModel, error) {
			return em.Cost(spec, em.DefaultParams())
		},
		Model: em.Model(),
	},
	"knn": {
		Name:        "knn",
		DatasetKind: "points",
		NewKernel: func(spec adr.DatasetSpec) (reduction.Kernel, error) {
			return knn.New(spec, knn.DefaultParams())
		},
		Cost: func(spec adr.DatasetSpec) (reduction.CostModel, error) {
			return knn.Cost(spec, knn.DefaultParams())
		},
		Model: knn.Model(),
	},
	"vortex": {
		Name:        "vortex",
		DatasetKind: "field",
		NewKernel: func(spec adr.DatasetSpec) (reduction.Kernel, error) {
			return vortex.New(spec, vortex.DefaultParams())
		},
		Cost: func(spec adr.DatasetSpec) (reduction.CostModel, error) {
			return vortex.Cost(spec, vortex.DefaultParams())
		},
		Model: vortex.Model(),
	},
	"defect": {
		Name:        "defect",
		DatasetKind: "lattice",
		NewKernel: func(spec adr.DatasetSpec) (reduction.Kernel, error) {
			return defect.New(spec, defect.DefaultParams())
		},
		Cost: func(spec adr.DatasetSpec) (reduction.CostModel, error) {
			return defect.Cost(spec, defect.DefaultParams())
		},
		Model: defect.Model(),
	},
}

// Get returns a registered application by name.
func Get(name string) (App, error) {
	a, ok := registry[name]
	if !ok {
		return App{}, fmt.Errorf("apps: unknown application %q (have %v)", name, Names())
	}
	return a, nil
}

// Model returns a registered application's scaling-class model, or the
// zero model for an unknown name: the Lookup hook profile stores use.
func Model(name string) core.AppModel {
	return registry[name].Model
}

// Names lists the registered applications, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RunSequential drives a kernel over a dataset on a single logical node,
// materializing chunks with the synthetic generators. It is the reference
// implementation parallel runs are checked against.
func RunSequential(k reduction.Kernel, spec adr.DatasetSpec) error {
	gen, err := datagen.For(spec.Kind)
	if err != nil {
		return err
	}
	layout, err := adr.Partition(spec, 1, adr.RoundRobin)
	if err != nil {
		return err
	}
	var overlap int64
	if or, ok := k.(reduction.OverlapRequester); ok {
		overlap = or.OverlapElems()
	}
	for pass := 0; pass < k.Iterations(); pass++ {
		obj := k.NewObject()
		for _, c := range layout.Chunks() {
			p := reduction.Payload{
				Chunk:  c,
				Fields: gen.FieldsPerElem(spec),
				Values: gen.ChunkValues(spec, c),
			}
			if overlap > 0 {
				before, after, err := datagen.HaloFor(gen, spec, c, overlap)
				if err != nil {
					return err
				}
				p.HaloBefore, p.HaloAfter = before, after
			}
			if err := k.ProcessChunk(p, obj); err != nil {
				return fmt.Errorf("apps: %s pass %d chunk %d: %w", k.Name(), pass, c.Index, err)
			}
		}
		done, err := k.GlobalReduce(obj)
		if err != nil {
			return fmt.Errorf("apps: %s pass %d global reduce: %w", k.Name(), pass, err)
		}
		if done {
			return nil
		}
	}
	return nil
}
