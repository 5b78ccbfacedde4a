package simgrid

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// FaultKind classifies one injected fault against a simulated grid node.
// The taxonomy follows what grid workload studies report as the dominant
// failure modes of production grids: whole-node crashes, degraded storage,
// and lossy wide-area links.
type FaultKind int

const (
	// FaultCrash permanently removes a compute node: the node performs no
	// further reduction work and its in-progress pass contribution is
	// lost. The middleware re-partitions the node's chunks onto the
	// surviving compute nodes.
	FaultCrash FaultKind = iota
	// FaultSlowDisk degrades a storage node's disk: reads take Factor
	// times as long for the next Count chunk reads (Count = 0 slows every
	// remaining read of the run).
	FaultSlowDisk
	// FaultFlakyLink makes a storage node's uplink lossy: the next Count
	// chunk deliveries from the node fail and must be retried by the
	// middleware's recovery layer.
	FaultFlakyLink
)

var faultKindNames = [...]string{
	FaultCrash:     "crash",
	FaultSlowDisk:  "slow-disk",
	FaultFlakyLink: "flaky-link",
}

func (k FaultKind) String() string {
	if k >= 0 && int(k) < len(faultKindNames) {
		return faultKindNames[k]
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault is one scheduled fault. Faults trigger on logical protocol
// coordinates rather than wall-clock times so that the same plan means
// the same thing on the simulated backend (virtual time) and on the real
// goroutine backend (wall time): Pass is the middleware pass and Chunk
// the per-node chunk ordinal within that pass at which the fault fires.
//
// Both backends spend a storage node's ordinals by one rule. The node
// numbers each pass's live delivery attempts in the order of the run's
// plan — by the position of the chunk in its compute node's list for the
// pass, then by compute node — and a lost delivery's retries take the
// next ordinals, before the node's next delivery. A crashing compute
// node's fetches in its crash pass take no ordinal. On a fault-free
// first pass this is the order of the storage node's chunks.
type Fault struct {
	// Kind selects the failure mode.
	Kind FaultKind
	// Node is the target node: a compute node for FaultCrash, a storage
	// node for FaultSlowDisk and FaultFlakyLink. Faults addressing nodes a
	// run does not have are ignored, so one plan can be replayed across
	// differently sized configurations.
	Node int
	// Pass is the pass in which the fault fires (0 = first pass).
	Pass int
	// Chunk is the per-node chunk ordinal within Pass at which the fault
	// fires: for a crash, how many chunks the node completes in its crash
	// pass before dying; for disk/link faults, the storage node's
	// delivery-attempt ordinal (see above) at which degradation starts.
	Chunk int
	// Factor is the slowdown multiplier of a slow-disk fault (> 1).
	Factor float64
	// Count bounds the fault's extent: reads affected by a slow-disk
	// fault (0 = the rest of the run) or failed deliveries of a
	// flaky-link fault (>= 1).
	Count int
}

// Validate reports whether the fault is well-formed.
func (f Fault) Validate() error {
	if f.Node < 0 || f.Pass < 0 || f.Chunk < 0 {
		return fmt.Errorf("simgrid: fault %v has negative coordinates (node=%d pass=%d chunk=%d)",
			f.Kind, f.Node, f.Pass, f.Chunk)
	}
	switch f.Kind {
	case FaultCrash:
		if f.Factor != 0 || f.Count != 0 {
			return fmt.Errorf("simgrid: crash fault takes no factor/count")
		}
	case FaultSlowDisk:
		if !(f.Factor > 1) || math.IsInf(f.Factor, 0) {
			return fmt.Errorf("simgrid: slow-disk factor %v, need finite > 1", f.Factor)
		}
		if f.Count < 0 {
			return fmt.Errorf("simgrid: slow-disk count %d < 0", f.Count)
		}
	case FaultFlakyLink:
		if f.Count < 1 {
			return fmt.Errorf("simgrid: flaky-link count %d, need >= 1", f.Count)
		}
		if f.Factor != 0 {
			return fmt.Errorf("simgrid: flaky-link fault takes no factor")
		}
	default:
		return fmt.Errorf("simgrid: unknown fault kind %d", int(f.Kind))
	}
	return nil
}

// String renders the fault in the canonical plan syntax.
func (f Fault) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s node=%d pass=%d chunk=%d", f.Kind, f.Node, f.Pass, f.Chunk)
	if f.Kind == FaultSlowDisk {
		fmt.Fprintf(&b, " factor=%s count=%d", strconv.FormatFloat(f.Factor, 'g', -1, 64), f.Count)
	}
	if f.Kind == FaultFlakyLink {
		fmt.Fprintf(&b, " count=%d", f.Count)
	}
	return b.String()
}

// FaultPlan is a deterministic fault schedule: given the same plan, a run
// injects exactly the same fault sequence, which is what makes fault
// traces reproducible and golden-testable.
type FaultPlan struct {
	// Seed records the RNG seed a generated plan was derived from
	// (0 for hand-written plans); it does not influence execution.
	Seed int64
	// Faults is the schedule, applied in order per target node.
	Faults []Fault
}

// Empty reports whether the plan injects nothing.
func (p FaultPlan) Empty() bool { return len(p.Faults) == 0 }

// Validate checks every fault in the plan.
func (p FaultPlan) Validate() error {
	for i, f := range p.Faults {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return nil
}

// String renders the plan in the text syntax ParseFaultPlan accepts:
// one fault per entry, entries joined by "; ".
func (p FaultPlan) String() string {
	entries := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		entries[i] = f.String()
	}
	return strings.Join(entries, "; ")
}

// CrashedNodes returns the distinct compute nodes the plan crashes, in
// ascending order.
func (p FaultPlan) CrashedNodes() []int {
	seen := make(map[int]bool)
	for _, f := range p.Faults {
		if f.Kind == FaultCrash {
			seen[f.Node] = true
		}
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// ParseFaultPlan parses the text fault-plan syntax:
//
//	crash node=2 pass=1 chunk=3; flaky-link node=0 count=2
//	slow-disk node=1 pass=0 factor=4 count=8
//
// Entries are separated by semicolons or newlines; fields inside an entry
// by whitespace. The first field is the fault kind (crash, slow-disk,
// flaky-link); the rest are key=value pairs. pass and chunk default to 0,
// a slow-disk factor to 4, a slow-disk count to 0 (rest of run), and a
// flaky-link count to 1. Malformed plans return an error; ParseFaultPlan
// never panics (see FuzzParseFaultPlan).
func ParseFaultPlan(s string) (FaultPlan, error) {
	var plan FaultPlan
	split := func(r rune) bool { return r == ';' || r == '\n' }
	for _, entry := range strings.FieldsFunc(s, split) {
		fields := strings.Fields(entry)
		if len(fields) == 0 {
			continue
		}
		f, err := parseFault(fields)
		if err != nil {
			return FaultPlan{}, fmt.Errorf("simgrid: fault plan entry %q: %w", strings.TrimSpace(entry), err)
		}
		plan.Faults = append(plan.Faults, f)
	}
	if err := plan.Validate(); err != nil {
		return FaultPlan{}, fmt.Errorf("simgrid: fault plan: %w", err)
	}
	return plan, nil
}

func parseFault(fields []string) (Fault, error) {
	f := Fault{Node: -1}
	switch fields[0] {
	case "crash":
		f.Kind = FaultCrash
	case "slow-disk":
		f.Kind = FaultSlowDisk
		f.Factor = 4
	case "flaky-link":
		f.Kind = FaultFlakyLink
		f.Count = 1
	default:
		return Fault{}, fmt.Errorf("unknown fault kind %q", fields[0])
	}
	seen := make(map[string]bool)
	for _, kv := range fields[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Fault{}, fmt.Errorf("field %q is not key=value", kv)
		}
		if seen[key] {
			return Fault{}, fmt.Errorf("duplicate key %q", key)
		}
		seen[key] = true
		switch key {
		case "node", "pass", "chunk", "count":
			n, err := strconv.Atoi(val)
			if err != nil {
				return Fault{}, fmt.Errorf("key %s: %v", key, err)
			}
			switch key {
			case "node":
				f.Node = n
			case "pass":
				f.Pass = n
			case "chunk":
				f.Chunk = n
			case "count":
				if f.Kind == FaultCrash {
					return Fault{}, fmt.Errorf("crash fault takes no count")
				}
				f.Count = n
			}
		case "factor":
			if f.Kind != FaultSlowDisk {
				return Fault{}, fmt.Errorf("%s fault takes no factor", f.Kind)
			}
			x, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Fault{}, fmt.Errorf("key factor: %v", err)
			}
			f.Factor = x
		default:
			return Fault{}, fmt.Errorf("unknown key %q", key)
		}
	}
	if f.Node < 0 {
		return Fault{}, fmt.Errorf("missing node=")
	}
	return f, nil
}

// GenerateFaultPlan derives a random but fully seed-determined fault plan
// for a run shape: the same (seed, dataNodes, computeNodes, passes)
// always yields the identical plan. Generated plans are guaranteed to
// leave at least one compute node alive (crashes target distinct nodes
// and never all of them) and to be recoverable with the middleware's
// default retry budget: a flaky link drops at most three deliveries, and
// a storage node gets at most one flaky link, since the drops of two
// could chain into one delivery. A flaky link the plan cannot take is
// still drawn, so the faults drawn after it do not depend on whether it
// was kept.
func GenerateFaultPlan(seed int64, dataNodes, computeNodes, passes int) FaultPlan {
	if dataNodes < 1 {
		dataNodes = 1
	}
	if computeNodes < 1 {
		computeNodes = 1
	}
	if passes < 1 {
		passes = 1
	}
	rng := rand.New(rand.NewSource(seed))
	plan := FaultPlan{Seed: seed}
	nFaults := 1 + rng.Intn(4)
	crashed, flaky := make(map[int]bool), make(map[int]bool)
	for i := 0; i < nFaults; i++ {
		switch rng.Intn(3) {
		case 0: // crash, if a node can still be spared
			if len(crashed) >= computeNodes-1 {
				continue
			}
			node := rng.Intn(computeNodes)
			if crashed[node] {
				continue
			}
			crashed[node] = true
			plan.Faults = append(plan.Faults, Fault{
				Kind:  FaultCrash,
				Node:  node,
				Pass:  rng.Intn(passes),
				Chunk: rng.Intn(4),
			})
		case 1:
			plan.Faults = append(plan.Faults, Fault{
				Kind:   FaultSlowDisk,
				Node:   rng.Intn(dataNodes),
				Pass:   0,
				Chunk:  rng.Intn(4),
				Factor: 2 + 6*rng.Float64(),
				Count:  rng.Intn(8),
			})
		case 2:
			f := Fault{
				Kind:  FaultFlakyLink,
				Node:  rng.Intn(dataNodes),
				Pass:  0,
				Chunk: rng.Intn(4),
				Count: 1 + rng.Intn(3),
			}
			if !flaky[f.Node] {
				flaky[f.Node] = true
				plan.Faults = append(plan.Faults, f)
			}
		}
	}
	return plan
}
