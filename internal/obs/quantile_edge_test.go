package obs

import (
	"strings"
	"testing"
	"time"
)

// TestQuantileEmpty: an unused histogram reports 0 for every quantile and
// never panics.
func TestQuantileEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := s.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%v) = %v, want 0", q, got)
		}
	}
	if s.Mean() != 0 || s.Max() != 0 {
		t.Errorf("empty histogram mean=%v max=%v, want 0", s.Mean(), s.Max())
	}
}

// TestQuantileSingleSample: with one observation every quantile is that
// sample — the bucket's upper bound must be capped at the observed max.
func TestQuantileSingleSample(t *testing.T) {
	var h Histogram
	const d = 300 * time.Nanosecond // bucket [256, 512)
	h.Observe(d)
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != d {
			t.Errorf("single-sample Quantile(%v) = %v, want %v (capped at max)", q, got, d)
		}
	}
	// Out-of-range q clamps instead of panicking or extrapolating.
	if got := s.Quantile(-0.5); got != d {
		t.Errorf("Quantile(-0.5) = %v, want %v", got, d)
	}
	if got := s.Quantile(1.5); got != d {
		t.Errorf("Quantile(1.5) = %v, want %v", got, d)
	}
}

// TestQuantileOverflowBucket: observations beyond the last finite bucket
// boundary all land in the overflow bucket, whose nominal upper bound is
// MaxUint64 — quantiles must report the observed max, not the bound.
func TestQuantileOverflowBucket(t *testing.T) {
	lo, hi := BucketBounds(histBuckets - 1)
	if hi != ^uint64(0) {
		t.Fatalf("last bucket hi = %d, want MaxUint64", hi)
	}
	var h Histogram
	max := time.Duration(lo) + 42*time.Minute
	h.Observe(time.Duration(lo))
	h.Observe(time.Duration(lo) + time.Minute)
	h.Observe(max)
	s := h.Snapshot()
	if len(s.Buckets) != 1 {
		t.Fatalf("got %d non-empty buckets, want all samples in the overflow bucket", len(s.Buckets))
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != max {
			t.Errorf("overflow-bucket Quantile(%v) = %v, want observed max %v", q, got, max)
		}
	}
	if s.Max() != max {
		t.Errorf("Max() = %v, want %v", s.Max(), max)
	}
}

// TestReporterFinalSnapshotOnStop locks in the contract that stop() always
// writes one final report, even when the interval never elapsed — and that
// stopping twice does not write twice.
func TestReporterFinalSnapshotOnStop(t *testing.T) {
	var m Metrics
	tick(&m, KindShared, 1)
	var buf strings.Builder
	stop := StartReporter(&buf, time.Hour, &m)
	stop()
	out := buf.String()
	if n := strings.Count(out, "events   total"); n != 1 {
		t.Fatalf("stop() before the first tick wrote %d reports, want exactly 1:\n%s", n, out)
	}
	if !strings.Contains(out, "shared=1") {
		t.Errorf("final report does not reflect the metrics state:\n%s", out)
	}
	stop()
	if n := strings.Count(buf.String(), "events   total"); n != 1 {
		t.Errorf("second stop() wrote another report (%d total)", n)
	}
}

// TestReportCausalLine: the causal counters appear in the report only when
// the record phase emitted annotations.
func TestReportCausalLine(t *testing.T) {
	var m Metrics
	var buf strings.Builder
	WriteReport(&buf, m.Snapshot())
	if strings.Contains(buf.String(), "causal") {
		t.Errorf("causal line present with zero counters:\n%s", buf.String())
	}
	m.SetOwner(func(s *Snapshot) { s.Causal = CausalCounts{Timestamps: 1, NetSpans: 2} })
	buf.Reset()
	WriteReport(&buf, m.Snapshot())
	if !strings.Contains(buf.String(), "causal   timestamps 1  net-spans 2") {
		t.Errorf("causal line missing or wrong:\n%s", buf.String())
	}
}
