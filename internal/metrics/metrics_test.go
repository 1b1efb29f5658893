package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestMeanStats(t *testing.T) {
	var m Mean
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Observe(x)
	}
	if m.N() != 8 {
		t.Fatalf("N=%d", m.N())
	}
	if got := m.Value(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("mean=%v, want 5", got)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if got, want := m.Stddev(), math.Sqrt(32.0/7.0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("stddev=%v, want %v", got, want)
	}
	if m.Min() != 2 || m.Max() != 9 {
		t.Fatalf("min/max=%v/%v", m.Min(), m.Max())
	}
}

func TestMeanMatchesNaive(t *testing.T) {
	if err := quick.Check(func(xs []float64) bool {
		var m Mean
		var sum float64
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			m.Observe(x)
			sum += x
			n++
		}
		if n == 0 {
			return m.Value() == 0
		}
		naive := sum / float64(n)
		return math.Abs(m.Value()-naive) <= 1e-6*(1+math.Abs(naive))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := h.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("p50=%v", got)
	}
	if got := h.Percentile(95); got != 95*time.Millisecond {
		t.Fatalf("p95=%v", got)
	}
	if got := h.Max(); got != 100*time.Millisecond {
		t.Fatalf("max=%v", got)
	}
	if got := h.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("mean=%v", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(50) != 0 || h.N() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramObserveAfterPercentile(t *testing.T) {
	var h Histogram
	h.Observe(10 * time.Millisecond)
	_ = h.Percentile(50)
	h.Observe(time.Millisecond)
	if got := h.Percentile(0); got != time.Millisecond {
		t.Fatalf("min after re-observe=%v, want 1ms", got)
	}
}

func TestTableRendering(t *testing.T) {
	out := Table([]string{"policy", "rt"}, [][]string{{"PS", "2.00"}, {"T-gated(2)", "1.01"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "policy") || !strings.Contains(lines[0], "rt") {
		t.Fatalf("bad header: %q", lines[0])
	}
	if !strings.Contains(lines[3], "T-gated(2)") {
		t.Fatalf("bad row: %q", lines[3])
	}
}
