package main

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"freerideg/internal/fgservice"
	"freerideg/internal/metrics"
	"freerideg/internal/units"
)

// TestDocumentedMetricsMatchRegistry keeps README's metrics paragraph
// and the live registry from drifting apart: after the selfcheck's
// requests have touched every endpoint (so lazily registered families
// such as fg_profile_drift_relerr exist), the fg_* families exposed at
// /metrics must be exactly the fg_* names the paragraph lists.
func TestDocumentedMetricsMatchRegistry(t *testing.T) {
	srv, err := fgservice.New(fgservice.Options{BaseBytes: 64 * units.MB})
	if err != nil {
		t.Fatal(err)
	}
	if err := runSelfcheck(srv, 10*time.Second); err != nil {
		t.Fatalf("selfcheck: %v", err)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, para, ok := strings.Cut(string(readme), "Metric names exported at `/metrics`:")
	if !ok {
		t.Fatal("README has no metrics paragraph")
	}
	para, _, _ = strings.Cut(para, "\n\n")
	documented := names(regexp.MustCompile("`(fg_[a-z0-9_]+)").FindAllStringSubmatch(para, -1))
	if len(documented) == 0 {
		t.Fatal("README's metrics paragraph names no fg_* metric")
	}

	exposed := names(regexp.MustCompile(`(?m)^# TYPE (fg_[a-z0-9_]+) `).
		FindAllStringSubmatch(metrics.Default().Expose(), -1))

	for _, n := range documented {
		if !slices.Contains(exposed, n) {
			t.Errorf("README documents %s, which the registry does not expose", n)
		}
	}
	for _, n := range exposed {
		if !slices.Contains(documented, n) {
			t.Errorf("the registry exposes %s, which README does not document", n)
		}
	}
}

// names returns the sorted, distinct first submatches.
func names(matches [][]string) []string {
	out := make([]string, 0, len(matches))
	for _, m := range matches {
		out = append(out, m[1])
	}
	slices.Sort(out)
	return slices.Compact(out)
}
