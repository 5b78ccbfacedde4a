package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
)

// golden.json pins what the program answered at the commit the
// benchmark was defined on: one SHA-256 per workload over its reference
// responses (requests included), and the sweep's prediction errors. The
// differential oracles prove the fast paths agree with the slow ones;
// the goldens prove both still agree with that commit.
//
//go:embed golden.json
var goldenFile []byte

type goldens struct {
	// Seed is the seed the seed-dependent digests were taken at.
	Seed int64 `json:"seed"`
	// GOARCH is the architecture they were taken on. Go fuses
	// multiply-adds on some architectures, which may legitimately move
	// the last bit of a prediction, so digests are only enforced on the
	// architecture that produced them.
	GOARCH  string            `json:"goarch"`
	Digests map[string]string `json:"digests"`
	// PredErrorMaxPct and PredErrorMeanPct are the figure sweep's
	// global-reduction relative errors over every cell of every figure.
	PredErrorMaxPct  float64 `json:"pred_error_max_pct"`
	PredErrorMeanPct float64 `json:"pred_error_mean_pct"`
}

func loadGoldens() (goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenFile, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// seedIndependent lists the workloads whose reference does not depend
// on the seed — the whole hot vocabulary, and the deterministic sweep —
// so their goldens hold at every seed.
var seedIndependent = map[string]bool{wlHotInproc: true, wlHotTCP: true, wlSweep: true}

// checkGolden compares a workload's digest with the pinned one. It
// returns "" when they agree or the golden does not apply to this run.
func (g goldens) checkGolden(workload string, seed int64, digest string) string {
	if runtime.GOARCH != g.GOARCH {
		return ""
	}
	if !seedIndependent[workload] && seed != g.Seed {
		return ""
	}
	if want := g.Digests[workload]; digest != want {
		return fmt.Sprintf("golden digest mismatch for %s: got %s, want %s", workload, digest, want)
	}
	return ""
}

// digestResponses hashes a reference table: every request with the
// response the reference server gave it, in schedule order.
func digestResponses(ops []op, ref [][]byte) string {
	h := sha256.New()
	for i := range ops {
		h.Write([]byte(ops[i].url.Path))
		h.Write([]byte{0})
		h.Write(ops[i].body)
		h.Write([]byte{0})
		h.Write(ref[i])
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
