// Command perfbench is the repository's benchmark: one command that runs
// a named workload built from a workload seed, checks every output, and
// prints the end-to-end metrics by name with their units — or, with
// -trace 1, the per-layer metrics and a self-time table whose rows and
// residual add up to the end-to-end wall time — followed by one JSON
// result line.
//
// It measures the program from outside. It times calls into each layer's
// public functions (logan.Aligner, logan.Mapper, logan.Overlapper,
// internal/backend, internal/xdrop) and drives a logan-serve child
// process over loopback, and it reads only what the program already
// exposes: returned Stats, MapStats and OverlapStats, the X-Logan-Trace
// response header, and /metrics (or the same registry in process).
//
// Run it from the repository root through run.sh, which builds this
// package and cmd/logan-serve from the working tree:
//
//	bash perfbench/run.sh --workload pairs-paper --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them; README.md lists what each one means per workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"gcups", "GCUPS"},
	{"p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers. A workload that bypasses a
// layer reports its metrics as 0, which is the prediction for that
// workload.
var perLayer = []spec{
	{"failed_ratio", "ratio"},
	{"trace.residual_share", "ratio"},
	{"xdrop.cells", "count"},
	{"xdrop.vector_cell_share", "ratio"},
	{"xdrop.bytes_per_cell", "B/cell"},
	{"xdrop.cells_per_ns_1t", "cells/ns"},
	{"backend.cpu_busy_s", "s"},
	{"backend.cpu_occupancy", "ratio"},
	{"backend.hybrid_gcups", "GCUPS"},
	{"backend.hybrid_cpu_cell_share", "ratio"},
	{"backend.hybrid_imbalance", "ratio"},
	{"backend.hybrid_partition_ms", "ms"},
	{"engine.overhead_ms", "ms"},
	{"engine.batches_per_request", "ratio"},
	{"coalescer.wait_p50_ms", "ms"},
	{"coalescer.wait_p99_ms", "ms"},
	{"coalescer.requests_per_batch", "ratio"},
	{"coalescer.direct_ratio", "ratio"},
	{"coalescer.shed", "count"},
	{"cache.hit_ratio", "ratio"},
	{"serve.admit_ms", "ms"},
	{"serve.open_p50_ms", "ms"},
	{"serve.open_p99_ms", "ms"},
	{"http.residual_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"mapper.seed_s", "s"},
	{"mapper.extend_s", "s"},
	{"mapper.residual_s", "s"},
	{"minidx.anchors_per_read", "ratio"},
	{"chain.chains_per_read", "ratio"},
	{"mapper.extensions_per_read", "ratio"},
	{"mapper.mapped_ratio", "ratio"},
	{"mapper.true_locus_ratio", "ratio"},
	{"bella.count_s", "s"},
	{"bella.prune_s", "s"},
	{"bella.matrix_s", "s"},
	{"bella.spgemm_s", "s"},
	{"bella.binning_s", "s"},
	{"overlap.align_s", "s"},
	{"overlap.filter_s", "s"},
	{"bella.candidate_pairs", "count"},
	{"bella.matrix_nnz", "count"},
	{"overlap.accept_ratio", "ratio"},
	{"overlap.recall", "ratio"},
	{"overlap.precision", "ratio"},
}

// opts is one run's command line.
type opts struct {
	seed     int64
	seconds  float64
	trace    bool
	serveBin string
}

// row is one line of the traced self-time table.
type row struct {
	layer   string
	seconds float64
}

// figure is one end-to-end number under the name the workload's users
// know it by (pairs_per_s, align_p99_ms, overlap_s, ...).
type figure struct {
	name, unit string
	value      float64
}

// report collects one run's outcome.
type report struct {
	attempted, failed int64
	values            map[string]float64
	figures           []figure
	// rows and wall are the traced self-time table: rows are disjoint
	// layer self times, wall the end-to-end time they account for.
	rows     []row
	wall     float64
	problems []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// figure records a workload-named end-to-end number for the human lines.
func (r *report) figure(name, unit string, v float64) {
	r.figures = append(r.figures, figure{name, unit, v})
}

// problem records a failed output check. The first few are kept verbatim.
func (r *report) problem(format string, args ...any) {
	const keep = 20
	if len(r.problems) < keep {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == keep {
		r.problems = append(r.problems, "... further problems omitted")
	}
}

// workloads maps each workload name to its runner. A runner returns an
// error only when the harness itself cannot run (the server does not
// start, say); output mismatches go into the report as problems.
var workloads = map[string]func(context.Context, opts, *report) error{
	"pairs-paper":   runPairs,
	"serve-align":   runServe,
	"map-reads":     runMap,
	"overlap-bella": runOverlap,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: pairs-paper, serve-align, map-reads or overlap-bella")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 12, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 reports the per-layer metrics and the self-time table instead of the end-to-end metrics")
		serveBin = flag.String("serve-bin", "", "logan-serve binary for serve-align (run.sh builds it)")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload pairs-paper|serve-align|map-reads|overlap-bella, -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, serveBin: *serveBin}
	r := newReport()
	err := run(ctx, o, r)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if !emit(*workload, o, r) {
		os.Exit(1)
	}
}

// emit prints the human-readable lines and the JSON result line, and
// reports whether every output check passed.
func emit(workload string, o opts, r *report) bool {
	if r.attempted > 0 {
		r.set("failed_ratio", float64(r.failed)/float64(r.attempted))
	} else {
		r.problem("no operation was attempted")
	}
	want := endToEnd
	if o.trace {
		want = perLayer
		if r.wall > 0 {
			r.set("trace.residual_share", r.residual()/r.wall)
		}
	}
	metrics := make(map[string]map[string]any, len(want))
	for _, s := range want {
		v := r.values[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("metric %s is not finite", s.name)
			v = 0
		}
		if !o.trace && v <= 0 {
			r.problem("end-to-end metric %s is %g", s.name, v)
		}
		metrics[s.name] = map[string]any{"value": v, "unit": s.unit}
	}

	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d\n",
		workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0))
	if !o.trace {
		for _, f := range r.figures {
			fmt.Printf("%-22s %14.6g %s\n", f.name, f.value, f.unit)
		}
	} else {
		printTable(r)
	}
	for _, s := range want {
		fmt.Printf("%-32s %14.6g %s\n", s.name, r.values[s.name], s.unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", p)
	}
	correct := len(r.problems) == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return false
	}
	fmt.Println(string(line))
	return correct
}

func (r *report) residual() float64 {
	s := r.wall
	for _, rw := range r.rows {
		s -= rw.seconds
	}
	return s
}

// printTable prints the layer self times beside the end-to-end wall time
// they account for, with the unexplained residual.
func printTable(r *report) {
	if r.wall <= 0 {
		return
	}
	fmt.Printf("# %-28s %12s %8s\n", "layer self time", "seconds", "share")
	for _, rw := range r.rows {
		fmt.Printf("# %-28s %12.6f %7.2f%%\n", rw.layer, rw.seconds, 100*rw.seconds/r.wall)
	}
	res := r.residual()
	fmt.Printf("# %-28s %12.6f %7.2f%%\n", "residual", res, 100*res/r.wall)
	fmt.Printf("# %-28s %12.6f %7.2f%%\n", "end-to-end wall", r.wall, 100.0)
}

// quantile returns the q-quantile of xs by the nearest-rank rule, or 0
// for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p99 returns the 99th percentile and whether at least ten samples lie
// beyond it, the least a tail figure needs to mean anything.
func p99(xs []float64) (float64, bool) {
	beyond := len(xs) - int(math.Ceil(0.99*float64(len(xs))))
	return quantile(xs, 0.99), beyond >= 10
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// seconds converts a length in seconds to a Duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// since is time.Since in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// peakRSSMB reads a process's high-water resident set size (VmHWM).
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// repeatSetup runs set-up n times and returns the last set-up's result
// with the median duration in seconds; the earlier results are released.
func repeatSetup[T any](n int, setup func() (T, error), release func(T)) (T, float64, error) {
	var (
		last T
		ds   []float64
	)
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		ds = append(ds, time.Since(start).Seconds())
		if i < n-1 {
			release(v)
			// Collect the released set-up now, so repeating set-up for a
			// median does not raise the peak RSS a single set-up has.
			runtime.GC()
		} else {
			last = v
		}
	}
	return last, median(ds), nil
}

// mix derives an independent generator seed from the workload seed and
// a stream number (splitmix64 finalizer), so every input stream of a
// run is fixed by the one seed.
func mix(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
