package simgrid

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseFaultPlanBasic(t *testing.T) {
	plan, err := ParseFaultPlan("crash node=2 pass=1 chunk=3; flaky-link node=0 count=2\nslow-disk node=1 factor=4.5 count=8")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: FaultCrash, Node: 2, Pass: 1, Chunk: 3},
		{Kind: FaultFlakyLink, Node: 0, Count: 2},
		{Kind: FaultSlowDisk, Node: 1, Factor: 4.5, Count: 8},
	}
	if !reflect.DeepEqual(plan.Faults, want) {
		t.Errorf("parsed %+v, want %+v", plan.Faults, want)
	}
}

func TestParseFaultPlanDefaults(t *testing.T) {
	plan, err := ParseFaultPlan("slow-disk node=0; flaky-link node=1")
	if err != nil {
		t.Fatal(err)
	}
	if f := plan.Faults[0]; f.Factor != 4 || f.Count != 0 {
		t.Errorf("slow-disk defaults = %+v, want factor=4 count=0", f)
	}
	if f := plan.Faults[1]; f.Count != 1 {
		t.Errorf("flaky-link defaults = %+v, want count=1", f)
	}
}

func TestParseFaultPlanEmpty(t *testing.T) {
	for _, s := range []string{"", "  ", ";;;", "\n\n"} {
		plan, err := ParseFaultPlan(s)
		if err != nil {
			t.Errorf("ParseFaultPlan(%q) = %v", s, err)
		}
		if !plan.Empty() {
			t.Errorf("ParseFaultPlan(%q) yielded %d faults", s, len(plan.Faults))
		}
	}
}

func TestParseFaultPlanRejectsMalformed(t *testing.T) {
	for _, s := range []string{
		"meteor node=0",                // unknown kind
		"crash",                        // missing node
		"crash node=-1",                // negative node
		"crash node=0 factor=2",        // crash takes no factor
		"crash node=0 count=2",         // crash takes no count
		"crash node=0 pass=x",          // non-numeric
		"crash node=0 node=1",          // duplicate key
		"crash node=0 color=red",       // unknown key
		"crash node",                   // not key=value
		"slow-disk node=0 factor=1",    // factor must exceed 1
		"slow-disk node=0 factor=+Inf", // non-finite factor
		"slow-disk node=0 count=-1",    // negative window
		"flaky-link node=0 count=0",    // zero failures
		"flaky-link node=0 factor=2",   // link fault takes no factor
	} {
		if _, err := ParseFaultPlan(s); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted", s)
		}
	}
}

func TestFaultPlanStringRoundTrip(t *testing.T) {
	plan, err := ParseFaultPlan("crash node=2 pass=1 chunk=3; slow-disk node=1 factor=2.25 count=5; flaky-link node=0 pass=0 chunk=2 count=3")
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseFaultPlan(plan.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", plan.String(), err)
	}
	if !reflect.DeepEqual(plan.Faults, again.Faults) {
		t.Errorf("round trip changed plan: %+v -> %+v", plan.Faults, again.Faults)
	}
}

func TestGenerateFaultPlanDeterministic(t *testing.T) {
	a := GenerateFaultPlan(42, 2, 8, 10)
	b := GenerateFaultPlan(42, 2, 8, 10)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different plans:\n%v\n%v", a, b)
	}
	c := GenerateFaultPlan(43, 2, 8, 10)
	if reflect.DeepEqual(a.Faults, c.Faults) {
		t.Error("different seeds produced identical plans")
	}
}

func TestGenerateFaultPlanAlwaysValidAndSurvivable(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		for _, c := range []int{1, 2, 4} {
			plan := GenerateFaultPlan(seed, 2, c, 5)
			if err := plan.Validate(); err != nil {
				t.Fatalf("seed %d c=%d: invalid plan: %v", seed, c, err)
			}
			crashed := make(map[int]bool)
			for _, f := range plan.Faults {
				if f.Kind == FaultCrash {
					crashed[f.Node] = true
					if f.Node >= c {
						t.Fatalf("seed %d: crash targets node %d of %d", seed, f.Node, c)
					}
				}
				if f.Kind != FaultCrash && f.Node >= 2 {
					t.Fatalf("seed %d: storage fault targets node %d of 2", seed, f.Node)
				}
			}
			if len(crashed) >= c {
				t.Fatalf("seed %d: plan crashes %d of %d compute nodes", seed, len(crashed), c)
			}
		}
	}
}

func TestGenerateFaultPlanRoundTripsThroughText(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		plan := GenerateFaultPlan(seed, 4, 8, 10)
		again, err := ParseFaultPlan(plan.String())
		if err != nil {
			t.Fatalf("seed %d: %q does not re-parse: %v", seed, plan.String(), err)
		}
		if !reflect.DeepEqual(plan.Faults, again.Faults) {
			t.Fatalf("seed %d: text round trip changed plan", seed)
		}
	}
}

func TestFaultKindStrings(t *testing.T) {
	for k, want := range map[FaultKind]string{
		FaultCrash: "crash", FaultSlowDisk: "slow-disk", FaultFlakyLink: "flaky-link",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	if got := FaultKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind renders as %q", got)
	}
}
