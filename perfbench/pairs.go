package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"logan"
	"logan/internal/backend"
	"logan/internal/core"
	"logan/internal/seq"
	"logan/internal/xdrop"
)

// The pairs-paper input is the paper's §VI-A set: 2,500-7,500 bp pairs at
// 15% PacBio-profile error with a planted 17-mer seed, aligned with
// linear +1/-1/-1 scoring at X=100. A fixed set of paperPairs pairs is
// cycled in batches of paperBatch, so every result is checked against a
// reference computed once, off the clock.
const (
	paperPairs = 384
	paperBatch = 32
	paperX     = 100
	// hybridGPUs is the simulated V100 count of the Hybrid engine.
	hybridGPUs = 2
)

func runPairs(ctx context.Context, o opts, r *report) error {
	rng := rand.New(rand.NewSource(mix(o.seed, 0)))
	set := seq.RandPairSet(rng, seq.PairSetOptions{
		N: paperPairs, MinLen: 2500, MaxLen: 7500, ErrorRate: 0.15, SeedLen: 17,
	})
	pairs := make([]logan.Pair, len(set))
	for i, p := range set {
		pairs[i] = logan.Pair{Query: p.Query, Target: p.Target, SeedQ: p.SeedQPos, SeedT: p.SeedTPos, SeedLen: p.SeedLen}
	}
	ref := referenceAlignments(set, xdrop.DefaultScoring(), paperX)
	var refCells float64
	for _, a := range ref {
		refCells += float64(a.Cells)
	}
	cfg := logan.DefaultConfig(paperX)

	// Set-up is engine start to the first result: building the CPU and
	// Hybrid engines and running the first batch on each, which also pays
	// every lazy initialisation (pools, workspaces, throughput estimates).
	type engines struct{ cpu, hybrid *logan.Aligner }
	closeBoth := func(e engines) {
		e.cpu.Close()
		e.hybrid.Close()
	}
	eng, setup, err := repeatSetup(5, func() (engines, error) {
		c, err := logan.NewAligner(logan.EngineOptions{})
		if err != nil {
			return engines{}, err
		}
		h, err := logan.NewAligner(logan.EngineOptions{Backend: logan.Hybrid, GPUs: hybridGPUs})
		if err != nil {
			c.Close()
			return engines{}, err
		}
		e := engines{c, h}
		for _, a := range []*logan.Aligner{c, h} {
			if _, _, err := a.Align(ctx, pairs[:paperBatch], cfg); err != nil {
				closeBoth(e)
				return engines{}, err
			}
		}
		return e, nil
	}, closeBoth)
	if err != nil {
		return fmt.Errorf("engine start: %w", err)
	}
	defer closeBoth(eng)
	r.set("setup_s", setup)
	r.figure("setup_s", "s", setup)

	cpuSecs := 0.75 * o.seconds
	before := registrySamples(eng.cpu.Telemetry())
	cpu := alignPhase(ctx, r, "cpu", eng.cpu, pairs, ref, cfg, cpuSecs)
	after := registrySamples(eng.cpu.Telemetry())
	hBefore := registrySamples(eng.hybrid.Telemetry())
	hyb := alignPhase(ctx, r, "hybrid", eng.hybrid, pairs, ref, cfg, o.seconds-cpuSecs)
	hAfter := registrySamples(eng.hybrid.Telemetry())

	if got := delta(before, after, "logan_kernel_cells_total"); got != cpu.refCells {
		r.problem("cpu engine: kernel cells counter moved by %.0f, the reference cells of the pairs run are %.0f", got, cpu.refCells)
	}

	r.set("ops_per_s", ratio(float64(cpu.pairs), cpu.wall))
	r.set("gcups", ratio(cpu.cells, cpu.wall)/1e9)
	r.set("p50_ms", median(cpu.batchMS))
	r.figure("pairs_per_s", "1/s", ratio(float64(cpu.pairs), cpu.wall))
	r.figure("gcups", "GCUPS", ratio(cpu.cells, cpu.wall)/1e9)
	r.figure("hybrid_gcups", "GCUPS", ratio(hyb.cells, hyb.wall)/1e9)
	r.figure("batch_p50_ms", "ms", median(cpu.batchMS))

	if o.trace {
		r.set("xdrop.cells", refCells)
		kernelLayer(r, before, after, cpu.wall)
		r.set("backend.hybrid_gcups", ratio(hyb.cells, hyb.wall)/1e9)
		r.set("backend.hybrid_cpu_cell_share", ratio(hyb.cpuCells, hyb.cells))
		r.set("backend.hybrid_imbalance", median(hyb.imbalance))
		part, n := stageDelta(hBefore, hAfter, "partition")
		r.set("backend.hybrid_partition_ms", 1e3*ratio(part, n))

		// The self-time table covers the CPU phase: the engine's own
		// stage histograms against the batch walls timed here.
		r.wall = cpu.wall
		for _, st := range []string{"admit", "partition", "kernel", "scatter"} {
			s, _ := stageDelta(before, after, st)
			r.rows = append(r.rows, row{"engine." + st, s})
		}

		probe := max(1.0, 0.1*o.seconds)
		r.set("xdrop.cells_per_ns_1t", kernelOneThread(ctx, r, set, ref, probe))
		over, err := engineOverhead(ctx, r, eng.cpu, pairs, set, ref, cfg, probe)
		if err != nil {
			return err
		}
		r.set("engine.overhead_ms", over)
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	r.figure("peak_rss_mb", "MB", rss)
	r.figure("failed_ratio", "ratio", ratio(float64(r.failed), float64(r.attempted)))
	return nil
}

// phase is what one timed loop of AlignInto batches measured.
type phase struct {
	pairs     int
	cells     float64
	refCells  float64
	cpuCells  float64
	wall      float64 // summed batch wall, seconds
	batchMS   []float64
	imbalance []float64 // slowest shard time / batch wall, per batch
}

// alignPhase runs batches of the cycled pair set through eng for the
// given seconds and checks every result against the reference.
func alignPhase(ctx context.Context, r *report, name string, eng *logan.Aligner, pairs []logan.Pair, ref []logan.Alignment, cfg logan.Config, secs float64) phase {
	var (
		ph  phase
		dst []logan.Alignment
	)
	deadline := time.Now().Add(seconds(secs))
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i = (i + paperBatch) % len(pairs) {
		b := pairs[i : i+paperBatch]
		r.attempted++
		start := time.Now()
		out, st, err := eng.AlignInto(ctx, dst, b, cfg)
		lat := time.Since(start)
		if err != nil {
			r.failed++
			r.problem("%s batch at pair %d: %v", name, i, err)
			continue
		}
		dst = out
		if bad := firstMismatch(out, ref[i:i+paperBatch]); bad >= 0 {
			r.failed++
			r.problem("%s pair %d: got %+v, reference %+v", name, i+bad, out[bad], ref[i+bad])
		}
		ph.pairs += len(b)
		ph.cells += float64(st.Cells)
		for _, a := range ref[i : i+paperBatch] {
			ph.refCells += float64(a.Cells)
		}
		ph.wall += lat.Seconds()
		ph.batchMS = append(ph.batchMS, ms(lat))
		var slowest time.Duration
		for _, sh := range st.PerBackend {
			slowest = max(slowest, sh.Time)
			if sh.Name == "cpu" {
				ph.cpuCells += float64(sh.Cells)
			}
		}
		ph.imbalance = append(ph.imbalance, ratio(slowest.Seconds(), st.WallTime.Seconds()))
	}
	return ph
}

func firstMismatch(got, want []logan.Alignment) int {
	for i := range want {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

// referenceAlignments computes every pair's seed-and-extend result with
// xdrop.ExtendReference, the repository's differential oracle, split at
// the seed exactly as the engine splits it.
func referenceAlignments(set []seq.Pair, sc xdrop.Scoring, x int32) []logan.Alignment {
	out := make([]logan.Alignment, len(set))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				p := set[i]
				end := p.SeedQPos + p.SeedLen
				tend := p.SeedTPos + p.SeedLen
				left := xdrop.ExtendReference(p.Query[:p.SeedQPos].Reverse(), p.Target[:p.SeedTPos].Reverse(), sc, x)
				right := xdrop.ExtendReference(p.Query[end:], p.Target[tend:], sc, x)
				out[i] = logan.Alignment{
					Score:  left.Score + right.Score + int32(p.SeedLen)*sc.Match,
					QBegin: p.SeedQPos - left.QueryEnd, QEnd: end + right.QueryEnd,
					TBegin: p.SeedTPos - left.TargetEnd, TEnd: tend + right.TargetEnd,
					Cells: left.Cells + right.Cells,
				}
			}
		}()
	}
	for i := range set {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// kernelOneThread runs the engine's kernel choice on one goroutine over
// the pair set and returns DP cells per nanosecond.
func kernelOneThread(ctx context.Context, r *report, set []seq.Pair, ref []logan.Alignment, secs float64) float64 {
	sc := xdrop.DefaultScoring()
	k := xdrop.SelectKernel(xdrop.LinearScheme(sc), paperX)
	ws := xdrop.NewWorkspace()
	var cells int64
	start := time.Now()
	deadline := start.Add(seconds(secs))
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i = (i + 1) % len(set) {
		p := set[i]
		res, err := ws.ExtendSeedKernel(p.Query, p.Target, p.SeedQPos, p.SeedTPos, p.SeedLen, sc, paperX, k)
		if err != nil || res.Score != ref[i].Score || res.Cells() != ref[i].Cells {
			r.problem("one-thread %s kernel pair %d: score %d cells %d, reference %d/%d (err %v)",
				k, i, res.Score, res.Cells(), ref[i].Score, ref[i].Cells, err)
		}
		cells += res.Cells()
	}
	return ratio(float64(cells), float64(time.Since(start).Nanoseconds()))
}

// engineOverhead is the median, over batches, of AlignInto wall minus a
// direct backend.ExtendBatch of the same pre-ingested pairs on a CPU
// backend of the same shape. The two calls alternate which runs first.
func engineOverhead(ctx context.Context, r *report, eng *logan.Aligner, pairs []logan.Pair, set []seq.Pair, ref []logan.Alignment, cfg logan.Config, secs float64) (float64, error) {
	be := backend.NewCPU(0)
	defer be.Close()
	cc := core.DefaultConfig(paperX)
	in := make([]seq.Pair, paperBatch)
	out := make([]xdrop.SeedResult, paperBatch)
	var (
		dst   []logan.Alignment
		diffs []float64
	)
	direct := func(i int) (time.Duration, error) {
		copy(in, set[i:i+paperBatch])
		for j := range in {
			in[j].ID = j
		}
		start := time.Now()
		_, err := be.ExtendBatch(ctx, in, out, cc)
		return time.Since(start), err
	}
	viaEngine := func(i int) (time.Duration, error) {
		start := time.Now()
		res, _, err := eng.AlignInto(ctx, dst, pairs[i:i+paperBatch], cfg)
		dst = res
		return time.Since(start), err
	}
	deadline := time.Now().Add(seconds(secs))
	for n, i := 0, 0; time.Now().Before(deadline) && ctx.Err() == nil; n, i = n+1, (i+paperBatch)%len(pairs) {
		var a, b time.Duration
		var errA, errB error
		if n%2 == 0 {
			a, errA = viaEngine(i)
			b, errB = direct(i)
		} else {
			b, errB = direct(i)
			a, errA = viaEngine(i)
		}
		if errA != nil || errB != nil {
			return 0, fmt.Errorf("engine overhead probe: %v / %v", errA, errB)
		}
		for j := range out {
			if out[j].Score != ref[i+j].Score || out[j].Cells() != ref[i+j].Cells {
				r.problem("direct cpu backend pair %d: score %d, reference %d", i+j, out[j].Score, ref[i+j].Score)
			}
		}
		diffs = append(diffs, ms(a-b))
	}
	return median(diffs), nil
}
