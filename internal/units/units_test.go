package units

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// pinnedQuick is a testing/quick configuration with a fixed seed, so a
// property failure reproduces on every run instead of at random.
func pinnedQuick(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1))}
}

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{KB, "1.00KB"},
		{1536, "1.50KB"},
		{MB, "1.00MB"},
		{1433 * MB, "1.40GB"},
		{GB, "1.00GB"},
		{TB, "1.00TB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want Bytes
	}{
		{"512", 512},
		{"512B", 512},
		{"64KB", 64 * KB},
		{"64kb", 64 * KB},
		{" 1.5 MB ", 1536 * KB},
		{"1.4GB", Bytes(math.Round(1.4 * float64(GB)))},
		{"710MB", 710 * MB},
		{"2TB", 2 * TB},
		{"0", 0},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil {
			t.Errorf("ParseBytes(%q) error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseBytesErrors(t *testing.T) {
	cases := []struct {
		in     string
		reason string
	}{
		{"", "empty string"},
		{"abc", "not a number"},
		{"12XB", "unknown unit"},
		{"-5MB", "negative"},
		{"-0.4KB", "negative fraction"},
		{"GB", "unit without value"},
		// Non-finite and overflowing volumes used to parse to
		// math.MinInt64 with a nil error.
		{"inf", "positive infinity"},
		{"+Inf", "positive infinity"},
		{"-inf", "negative infinity"},
		{"Infinity", "spelled-out infinity"},
		{"infGB", "infinite volume with unit"},
		{"nan", "not-a-number"},
		{"NaNKB", "not-a-number with unit"},
		{"1e300GB", "overflow after unit scaling"},
		{"1e19", "overflow without unit"},
		{"9223372036854775808", "one past MaxInt64"},
	}
	for _, c := range cases {
		if v, err := ParseBytes(c.in); err == nil {
			t.Errorf("ParseBytes(%q) = %d, want error (%s)", c.in, int64(v), c.reason)
		}
	}
}

func TestParseBytesNearOverflowBoundary(t *testing.T) {
	// Just below 2^63 must still parse; the largest float64 below 2^63 is
	// 2^63 - 1024.
	got, err := ParseBytes("9223372036854774784")
	if err != nil {
		t.Fatalf("ParseBytes near MaxInt64: %v", err)
	}
	if got <= 0 {
		t.Fatalf("ParseBytes near MaxInt64 = %d, want positive", int64(got))
	}
	// 8 exbibytes exactly (2^63) must be rejected, 2^62 accepted.
	if v, err := ParseBytes("8388608TB"); err == nil {
		t.Fatalf("ParseBytes(8EiB) = %d, want overflow error", int64(v))
	}
	if _, err := ParseBytes("4194304TB"); err != nil {
		t.Fatalf("ParseBytes(4EiB): %v", err)
	}
}

func TestParseBytesNeverReturnsNegative(t *testing.T) {
	// Property pinning the original bug: whatever the input, a nil error
	// implies a non-negative, in-range volume.
	for _, in := range []string{"inf", "nan", "1e300GB", "1e308", "512MB", "0", "2TB"} {
		v, err := ParseBytes(in)
		if err == nil && v < 0 {
			t.Errorf("ParseBytes(%q) = %d with nil error", in, int64(v))
		}
	}
}

func TestParseBytesRoundTripsString(t *testing.T) {
	f := func(raw uint32) bool {
		b := Bytes(raw)
		got, err := ParseBytes(b.String())
		if err != nil {
			return false
		}
		// String() rounds to two decimals, so allow 1% slack above KB.
		if b < KB {
			return got == b
		}
		diff := math.Abs(float64(got - b))
		return diff <= 0.01*float64(b)+1
	}
	if err := quick.Check(f, pinnedQuick(100)); err != nil {
		t.Error(err)
	}
}

func TestRateTransferTime(t *testing.T) {
	cases := []struct {
		r    Rate
		v    Bytes
		want time.Duration
	}{
		{MBPerSec, MB, time.Second},
		{100 * MBPerSec, 50 * MB, 500 * time.Millisecond},
		{KBPerSec, KB, time.Second},
		{MBPerSec, 0, 0},
	}
	for _, c := range cases {
		if got := c.r.TransferTime(c.v); got != c.want {
			t.Errorf("%v.TransferTime(%v) = %v, want %v", c.r, c.v, got, c.want)
		}
	}
}

func TestZeroRateIsUnreachable(t *testing.T) {
	if got := Rate(0).TransferTime(MB); got != time.Duration(math.MaxInt64) {
		t.Fatalf("zero-rate transfer = %v, want saturated max", got)
	}
}

func TestRateString(t *testing.T) {
	cases := []struct {
		r    Rate
		want string
	}{
		{100 * MBPerSec, "100.00MB/s"},
		{2 * GBPerSec, "2.00GB/s"},
		{500 * KBPerSec, "500.00KB/s"},
		{10, "10.00B/s"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Rate.String() = %q, want %q", got, c.want)
		}
	}
}

func TestSecondsSaturates(t *testing.T) {
	if got := Seconds(1e300); got != time.Duration(math.MaxInt64) {
		t.Fatalf("Seconds(1e300) = %v, want saturated max", got)
	}
	if got := Seconds(-1e300); got != time.Duration(math.MinInt64) {
		t.Fatalf("Seconds(-1e300) = %v, want saturated min", got)
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	f := func(ms uint16) bool {
		sec := float64(ms) / 1000
		return math.Abs(SecondsOf(Seconds(sec))-sec) < 1e-9
	}
	if err := quick.Check(f, pinnedQuick(100)); err != nil {
		t.Error(err)
	}
}
