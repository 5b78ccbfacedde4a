// Package units provides byte sizes, transfer rates, and virtual-time
// helpers shared by the simulator, middleware, and prediction framework.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Bytes is a data volume. It is a distinct type so that dataset sizes,
// chunk sizes, and reduction object sizes cannot be accidentally mixed
// with element counts.
type Bytes int64

// Common byte units.
const (
	Byte Bytes = 1
	KB         = 1024 * Byte
	MB         = 1024 * KB
	GB         = 1024 * MB
	TB         = 1024 * GB
)

// String renders the volume with a binary-unit suffix, e.g. "1.40GB".
func (b Bytes) String() string {
	switch {
	case b >= TB:
		return fmt.Sprintf("%.2fTB", float64(b)/float64(TB))
	case b >= GB:
		return fmt.Sprintf("%.2fGB", float64(b)/float64(GB))
	case b >= MB:
		return fmt.Sprintf("%.2fMB", float64(b)/float64(MB))
	case b >= KB:
		return fmt.Sprintf("%.2fKB", float64(b)/float64(KB))
	}
	return fmt.Sprintf("%dB", int64(b))
}

// ParseBytes parses strings such as "512", "64KB", "1.4GB", "710MB".
// Unit suffixes are case-insensitive and binary (1KB = 1024B).
func ParseBytes(s string) (Bytes, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	unit := Byte
	switch {
	case strings.HasSuffix(t, "TB"):
		unit, t = TB, t[:len(t)-2]
	case strings.HasSuffix(t, "GB"):
		unit, t = GB, t[:len(t)-2]
	case strings.HasSuffix(t, "MB"):
		unit, t = MB, t[:len(t)-2]
	case strings.HasSuffix(t, "KB"):
		unit, t = KB, t[:len(t)-2]
	case strings.HasSuffix(t, "B"):
		t = t[:len(t)-1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
	if err != nil {
		return 0, fmt.Errorf("units: cannot parse %q as bytes: %v", s, err)
	}
	// strconv.ParseFloat accepts "inf", "nan", and values whose scaled
	// volume exceeds int64; all of them would silently convert to
	// math.MinInt64 below, poisoning every downstream size computation.
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("units: non-finite byte volume %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("units: negative byte volume %q", s)
	}
	scaled := v * float64(unit)
	// float64(math.MaxInt64) is exactly 2^63; any float strictly below it
	// rounds to a representable int64, anything at or above overflows.
	if scaled >= float64(math.MaxInt64) {
		return 0, fmt.Errorf("units: byte volume %q overflows int64", s)
	}
	return Bytes(math.Round(scaled)), nil
}

// Rate is a transfer or processing rate in bytes per second.
type Rate float64

// Common rates. The paper's bandwidth-variation experiments are labelled in
// Kbps; only the ratio between profile and target bandwidth enters the
// model, so we keep the same labels.
const (
	BytePerSec Rate = 1
	KBPerSec        = 1024 * BytePerSec
	MBPerSec        = 1024 * KBPerSec
	GBPerSec        = 1024 * MBPerSec
)

// String renders the rate with a unit suffix, e.g. "350.00MB/s".
func (r Rate) String() string {
	switch {
	case r >= GBPerSec:
		return fmt.Sprintf("%.2fGB/s", float64(r)/float64(GBPerSec))
	case r >= MBPerSec:
		return fmt.Sprintf("%.2fMB/s", float64(r)/float64(MBPerSec))
	case r >= KBPerSec:
		return fmt.Sprintf("%.2fKB/s", float64(r)/float64(KBPerSec))
	}
	return fmt.Sprintf("%.2fB/s", float64(r))
}

// TransferTime reports the virtual time needed to move v bytes at rate r.
// A non-positive rate yields an infinite-like sentinel of math.MaxInt64,
// which callers treat as "unreachable".
func (r Rate) TransferTime(v Bytes) time.Duration {
	if r <= 0 {
		return time.Duration(math.MaxInt64)
	}
	sec := float64(v) / float64(r)
	return Seconds(sec)
}

// Seconds converts a float64 second count into a time.Duration, rounding
// to the nearest nanosecond and saturating instead of overflowing for
// very large values.
func Seconds(sec float64) time.Duration {
	ns := math.Round(sec * float64(time.Second))
	if ns >= float64(math.MaxInt64) {
		return time.Duration(math.MaxInt64)
	}
	if ns <= float64(math.MinInt64) {
		return time.Duration(math.MinInt64)
	}
	return time.Duration(ns)
}

// SecondsOf converts a duration to float64 seconds.
func SecondsOf(d time.Duration) float64 { return d.Seconds() }
