// Package adr implements the chunked data repository substrate that the
// paper's middleware builds on (the Active Data Repository, ADR). Datasets
// are stored as fixed-size chunks declustered across the storage nodes of a
// repository; the data server retrieves chunks per node in order and ships
// them to compute nodes.
package adr

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"freerideg/internal/units"
)

// DatasetSpec describes a logical dataset held by a repository.
type DatasetSpec struct {
	// Name identifies the dataset across replicas.
	Name string
	// TotalBytes is the dataset size s in the paper's model.
	TotalBytes units.Bytes
	// ElemBytes is the size of one data element (record).
	ElemBytes units.Bytes
	// ChunkBytes is the target chunk size; the final chunk may be smaller.
	ChunkBytes units.Bytes
	// Kind selects the synthetic generator ("points", "field", "lattice").
	Kind string
	// Seed makes chunk contents reproducible across replicas and backends.
	Seed int64
	// Dims is the per-element dimensionality used by the generators
	// (point dimensionality, field vector width, lattice attributes).
	Dims int
}

// Validate reports whether the spec is internally consistent.
func (s DatasetSpec) Validate() error {
	switch {
	case s.Name == "":
		return errors.New("adr: dataset needs a name")
	case s.TotalBytes <= 0:
		return fmt.Errorf("adr: dataset %q has non-positive size", s.Name)
	case s.ElemBytes <= 0:
		return fmt.Errorf("adr: dataset %q has non-positive element size", s.Name)
	case s.ChunkBytes < s.ElemBytes:
		return fmt.Errorf("adr: dataset %q chunk size %v below element size %v", s.Name, s.ChunkBytes, s.ElemBytes)
	case s.Dims <= 0:
		return fmt.Errorf("adr: dataset %q needs Dims >= 1", s.Name)
	}
	return nil
}

// Elems reports the number of whole elements in the dataset.
func (s DatasetSpec) Elems() int64 {
	return int64(s.TotalBytes / s.ElemBytes)
}

// Chunk is one unit of retrieval and distribution.
type Chunk struct {
	// Index is the chunk's position in the dataset (0-based).
	Index int
	// Bytes is the chunk's payload size.
	Bytes units.Bytes
	// Elems is the number of whole elements in the chunk.
	Elems int64
	// Home is the storage node that holds the chunk in this layout.
	Home int
}

// DeclusterPolicy controls how chunks are assigned to storage nodes.
type DeclusterPolicy int

const (
	// RoundRobin assigns chunk i to node i mod n (ADR's default striping).
	RoundRobin DeclusterPolicy = iota
	// Blocked assigns contiguous runs of chunks to each node.
	Blocked
)

func (p DeclusterPolicy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case Blocked:
		return "blocked"
	}
	return fmt.Sprintf("DeclusterPolicy(%d)", int(p))
}

// Layout is a dataset partitioned over the storage nodes of one repository.
type Layout struct {
	Spec   DatasetSpec
	Nodes  int
	Policy DeclusterPolicy
	chunks []Chunk
}

// Partition splits a dataset into chunks and declusters them over nodes.
func Partition(spec DatasetSpec, nodes int, policy DeclusterPolicy) (*Layout, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if nodes < 1 {
		return nil, fmt.Errorf("adr: dataset %q needs >= 1 storage node", spec.Name)
	}
	elemsPerChunk := int64(spec.ChunkBytes / spec.ElemBytes)
	totalElems := spec.Elems()
	if totalElems == 0 {
		return nil, fmt.Errorf("adr: dataset %q holds no whole elements", spec.Name)
	}
	nChunks := int((totalElems + elemsPerChunk - 1) / elemsPerChunk)
	l := &Layout{Spec: spec, Nodes: nodes, Policy: policy}
	l.chunks = make([]Chunk, nChunks)
	remaining := totalElems
	for i := range l.chunks {
		e := elemsPerChunk
		if remaining < e {
			e = remaining
		}
		remaining -= e
		l.chunks[i] = Chunk{
			Index: i,
			Elems: e,
			Bytes: units.Bytes(e) * spec.ElemBytes,
		}
	}
	switch policy {
	case RoundRobin:
		for i := range l.chunks {
			l.chunks[i].Home = i % nodes
		}
	case Blocked:
		per := (nChunks + nodes - 1) / nodes
		for i := range l.chunks {
			home := i / per
			if home >= nodes {
				home = nodes - 1
			}
			l.chunks[i].Home = home
		}
	default:
		return nil, fmt.Errorf("adr: unknown decluster policy %v", policy)
	}
	return l, nil
}

// Chunks returns all chunks in index order; a chunk's Home is the
// storage node that holds it. Callers must not modify the list.
func (l *Layout) Chunks() []Chunk { return l.chunks }

// Replica is one copy of a dataset hosted at a repository site.
type Replica struct {
	// Site names the hosting repository (e.g. "osu-repository").
	Site string
	// Cluster identifies the hardware the site runs on.
	Cluster string
	// StorageNodes is the number of data-server nodes at the site.
	StorageNodes int
	// Layout is the chunk layout at this site.
	Layout *Layout
}

// Registry tracks the replicas of each dataset, playing the role of the
// grid replica catalog the paper's resource selection framework consults.
// It is safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	replicas map[string][]Replica
	version  uint64
}

// NewRegistry returns an empty replica registry.
func NewRegistry() *Registry {
	return &Registry{replicas: make(map[string][]Replica)}
}

// Register adds a replica for its dataset.
func (r *Registry) Register(rep Replica) error {
	if rep.Layout == nil {
		return errors.New("adr: replica without layout")
	}
	if rep.Site == "" {
		return errors.New("adr: replica without site")
	}
	if rep.StorageNodes != rep.Layout.Nodes {
		return fmt.Errorf("adr: replica at %q declares %d nodes but layout has %d",
			rep.Site, rep.StorageNodes, rep.Layout.Nodes)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	name := rep.Layout.Spec.Name
	for _, existing := range r.replicas[name] {
		if existing.Site == rep.Site {
			return fmt.Errorf("adr: dataset %q already has a replica at %q", name, rep.Site)
		}
	}
	r.replicas[name] = append(r.replicas[name], rep)
	r.version++
	return nil
}

// Version counts successful registrations: a cheap monotonic signal
// consumers (the grid rank engine) use to detect that the replica
// catalog changed without re-reading and comparing its content.
func (r *Registry) Version() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.version
}

// Replicas returns the replicas of a dataset sorted by site name.
func (r *Registry) Replicas(dataset string) []Replica {
	r.mu.RLock()
	defer r.mu.RUnlock()
	reps := append([]Replica(nil), r.replicas[dataset]...)
	sort.Slice(reps, func(i, j int) bool { return reps[i].Site < reps[j].Site })
	return reps
}

// Datasets lists all registered dataset names, sorted.
func (r *Registry) Datasets() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.replicas))
	for n := range r.replicas {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
