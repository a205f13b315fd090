package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseTrace(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   map[string]time.Duration
	}{
		{"", map[string]time.Duration{}},
		// Go prints microseconds with U+00B5; U+03BC parses the same.
		{"admit=663µs;coalesce_wait=2.228ms;partition=0s;kernel=2.511ms;scatter=5µs",
			map[string]time.Duration{"admit": 663 * time.Microsecond, "coalesce_wait": 2228 * time.Microsecond,
				"partition": 0, "kernel": 2511 * time.Microsecond, "scatter": 5 * time.Microsecond}},
		{"admit=1μs", map[string]time.Duration{"admit": time.Microsecond}},
		// A shed request's trace ends in a shed span; a repeated stage sums.
		{"admit=1ms;admit=2ms;shed=10µs", map[string]time.Duration{"admit": 3 * time.Millisecond, "shed": 10 * time.Microsecond}},
	} {
		got, err := parseTrace(tc.header)
		if err != nil {
			t.Fatalf("parseTrace(%q): %v", tc.header, err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("parseTrace(%q) = %v, want %v", tc.header, got, tc.want)
		}
		for k, v := range tc.want {
			if got[k] != v {
				t.Fatalf("parseTrace(%q)[%s] = %v, want %v", tc.header, k, got[k], v)
			}
		}
	}
	for _, bad := range []string{"admit", "=1ms", "admit=fast", "admit=1ms;"} {
		if _, err := parseTrace(bad); err == nil {
			t.Errorf("parseTrace(%q) accepted a malformed header", bad)
		}
	}
}

func TestParseSamples(t *testing.T) {
	text := "# HELP logan_x x\n# TYPE logan_x counter\n" +
		"logan_kernel_cells_total{variant=\"vector\"} 2.02586e+06\n" +
		"logan_kernel_cells_total{variant=\"scalar\"} 14\n" +
		"logan_engine_batches_total 2\n"
	before := samples{"logan_kernel_cells_total{variant=\"vector\"}": 6}
	s, err := parseSamples(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := delta(before, s, "logan_kernel_cells_total"); got != 2025860+14-6 {
		t.Fatalf("family delta = %v", got)
	}
	if got := delta(before, s, `logan_kernel_cells_total{variant="vector"}`); got != 2025860-6 {
		t.Fatalf("series delta = %v", got)
	}
	if _, err := parseSamples(strings.NewReader("logan_x notanumber\n")); err == nil {
		t.Fatal("accepted a malformed sample")
	}
}

func TestQuantiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := p99(xs); v != 990 || !ok {
		t.Fatalf("p99 of 1..1000 = %v, %v", v, ok)
	}
	if _, ok := p99(xs[:999]); ok {
		t.Fatal("p99 of 999 samples claimed ten samples beyond it")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
}
