package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"freerideg/internal/units"
)

// pinnedQuick is a testing/quick configuration with a fixed seed, so a
// property failure reproduces on every run instead of at random.
func pinnedQuick(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1))}
}

// cfgFrom builds a valid config from fuzz inputs.
func cfgFrom(nRaw, cRaw, sRaw, bRaw uint8) Config {
	n := 1 << (int(nRaw) % 4) // 1,2,4,8
	c := n << (int(cRaw) % 3) // n..4n
	if c > 16 {
		c = 16
	}
	s := units.Bytes(int(sRaw)%1000+1) * units.MB
	b := units.Rate(int(bRaw)%400+10) * units.MBPerSec
	return Config{Cluster: "A", DataNodes: n, ComputeNodes: c, Bandwidth: b, DatasetBytes: s}
}

func TestPredictPropertyPositiveComponents(t *testing.T) {
	pr := mustPredictor(t, AppModel{RO: ROConstant, Global: GlobalLinearConstant})
	f := func(nRaw, cRaw, sRaw, bRaw uint8, vRaw uint8) bool {
		cfg := cfgFrom(nRaw, cRaw, sRaw, bRaw)
		v := Variants()[int(vRaw)%3]
		p, err := pr.Predict(cfg, v)
		if err != nil {
			return false
		}
		return p.Tdisk >= 0 && p.Tnetwork >= 0 && p.Tcompute >= 0 &&
			p.Tro >= 0 && p.Tglobal >= 0 && p.Texec() > 0
	}
	if err := quick.Check(f, pinnedQuick(100)); err != nil {
		t.Error(err)
	}
}

func TestPredictPropertyDiskScalesWithStorageNodes(t *testing.T) {
	pr := mustPredictor(t, AppModel{})
	f := func(sRaw, bRaw uint8) bool {
		a := cfgFrom(0, 2, sRaw, bRaw) // 1 data node
		b := a
		b.DataNodes, b.ComputeNodes = 2, a.ComputeNodes*2
		pa, err1 := pr.Predict(a, NoComm)
		pb, err2 := pr.Predict(b, NoComm)
		if err1 != nil || err2 != nil {
			return false
		}
		// Doubling storage nodes halves T̂_disk (within duration rounding).
		diff := pa.Tdisk/2 - pb.Tdisk
		return diff > -time.Microsecond && diff < time.Microsecond
	}
	if err := quick.Check(f, pinnedQuick(100)); err != nil {
		t.Error(err)
	}
}

func TestPredictPropertyDatasetLinearity(t *testing.T) {
	// Doubling ŝ doubles every NoComm component exactly.
	pr := mustPredictor(t, AppModel{})
	f := func(nRaw, cRaw, sRaw, bRaw uint8) bool {
		a := cfgFrom(nRaw, cRaw, sRaw, bRaw)
		b := a
		b.DatasetBytes *= 2
		pa, err1 := pr.Predict(a, NoComm)
		pb, err2 := pr.Predict(b, NoComm)
		if err1 != nil || err2 != nil {
			return false
		}
		close := func(x, y time.Duration) bool {
			d := 2*x - y
			return d > -time.Microsecond && d < time.Microsecond
		}
		return close(pa.Tdisk, pb.Tdisk) && close(pa.Tnetwork, pb.Tnetwork) &&
			close(pa.Tcompute, pb.Tcompute)
	}
	if err := quick.Check(f, pinnedQuick(100)); err != nil {
		t.Error(err)
	}
}

func TestPredictPropertyVariantsOrderedInCompute(t *testing.T) {
	// For configurations larger than the profile's, the serialized terms
	// only ever add compute time: NoComm <= ReductionComm <= Global when
	// the profile's Tro and Tg are zero-ish and classes grow with c.
	pr := mustPredictor(t, AppModel{RO: ROConstant, Global: GlobalLinearConstant})
	f := func(nRaw, cRaw, sRaw, bRaw uint8) bool {
		cfg := cfgFrom(nRaw, cRaw, sRaw, bRaw)
		if cfg.ComputeNodes < 2 {
			return true
		}
		pn, err1 := pr.Predict(cfg, NoComm)
		prc, err2 := pr.Predict(cfg, ReductionComm)
		pg, err3 := pr.Predict(cfg, GlobalReduction)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return pn.Tcompute <= prc.Tcompute && prc.Tcompute <= pg.Tcompute+time.Microsecond
	}
	if err := quick.Check(f, pinnedQuick(100)); err != nil {
		t.Error(err)
	}
}

func TestPredictPropertyBandwidthOnlyMovesNetwork(t *testing.T) {
	pr := mustPredictor(t, AppModel{})
	f := func(nRaw, cRaw, sRaw uint8) bool {
		a := cfgFrom(nRaw, cRaw, sRaw, 50)
		b := a
		b.Bandwidth = a.Bandwidth * 2
		pa, err1 := pr.Predict(a, NoComm)
		pb, err2 := pr.Predict(b, NoComm)
		if err1 != nil || err2 != nil {
			return false
		}
		if pa.Tdisk != pb.Tdisk || pa.Tcompute != pb.Tcompute {
			return false
		}
		diff := pa.Tnetwork/2 - pb.Tnetwork
		return diff > -time.Microsecond && diff < time.Microsecond
	}
	if err := quick.Check(f, pinnedQuick(100)); err != nil {
		t.Error(err)
	}
}

func TestPredictPropertyCrossClusterScalesTotal(t *testing.T) {
	pr := mustPredictor(t, AppModel{})
	pr.Scalings["B"] = Scaling{Disk: 0.5, Network: 0.5, Compute: 0.5}
	f := func(nRaw, cRaw, sRaw, bRaw uint8) bool {
		onA := cfgFrom(nRaw, cRaw, sRaw, bRaw)
		onB := onA
		onB.Cluster = "B"
		pa, err1 := pr.Predict(onA, NoComm)
		pb, err2 := pr.Predict(onB, NoComm)
		if err1 != nil || err2 != nil {
			return false
		}
		diff := pa.Texec()/2 - pb.Texec()
		return diff > -time.Microsecond && diff < time.Microsecond
	}
	if err := quick.Check(f, pinnedQuick(100)); err != nil {
		t.Error(err)
	}
}
