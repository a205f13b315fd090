package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"logan/internal/telemetry"
)

// samples is one scrape of the Prometheus text exposition: value by
// series key, the metric name with its label set exactly as exposed
// (`logan_kernel_cells_total{variant="vector"}`). The in-process
// workloads read their engine's registry through the same text, so one
// parser serves the library and the server alike.
type samples map[string]float64

func parseSamples(r io.Reader) (samples, error) {
	out := samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		ln := sc.Text()
		if ln == "" || ln[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(ln, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %q", ln)
		}
		v, err := strconv.ParseFloat(ln[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", ln, err)
		}
		out[ln[:i]] = v
	}
	return out, sc.Err()
}

// registrySamples snapshots an in-process telemetry registry.
func registrySamples(reg *telemetry.Registry) samples {
	var b bytes.Buffer
	if err := reg.Snapshot().WriteText(&b); err != nil {
		panic(err) // a bytes.Buffer write cannot fail
	}
	s, err := parseSamples(&b)
	if err != nil {
		panic(err) // the registry's own text is well formed
	}
	return s
}

// scrape fetches a server's /metrics.
func scrape(c *http.Client, base string) (samples, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	return parseSamples(resp.Body)
}

// family sums every series of one metric family (all label sets).
func (s samples) family(name string) float64 {
	var t float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// delta is after-before of one series key (or whole family when the key
// has no label set).
func delta(before, after samples, key string) float64 {
	if strings.Contains(key, "{") {
		return after[key] - before[key]
	}
	return after.family(key) - before.family(key)
}

// stageDelta returns the summed seconds and count of one pipeline stage
// of the logan_stage_duration_seconds family between two scrapes.
func stageDelta(before, after samples, stage string) (seconds, count float64) {
	sum := `logan_stage_duration_seconds_sum{stage="` + stage + `"}`
	cnt := `logan_stage_duration_seconds_count{stage="` + stage + `"}`
	return after[sum] - before[sum], after[cnt] - before[cnt]
}

// kernelLayer derives the kernel and CPU-backend layer metrics from the
// engine counters between two scrapes: exact DP cells per kernel variant
// and the CPU shard's busy time over the measured wall.
func kernelLayer(r *report, before, after samples, wall float64) {
	vector := delta(before, after, `logan_kernel_cells_total{variant="vector"}`)
	scalar := delta(before, after, `logan_kernel_cells_total{variant="scalar"}`)
	all := delta(before, after, "logan_kernel_cells_total")
	r.set("xdrop.vector_cell_share", ratio(vector, all))
	// Computed bytes per cell from the kernels' data sizes, not a
	// measurement: the int32 scalar kernel reads three 4-byte neighbour
	// scores and two bases and writes one score (18 B); the int16 vector
	// kernel moves the same items at 2 bytes per score (10 B).
	r.set("xdrop.bytes_per_cell", ratio(18*scalar+10*vector, scalar+vector))
	busy := delta(before, after, `logan_backend_busy_seconds_total{backend="cpu"}`)
	r.set("backend.cpu_busy_s", busy)
	r.set("backend.cpu_occupancy", ratio(busy, wall))
}
