package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"logan"
	"logan/internal/bella"
	"logan/internal/genome"
)

// overlap-bella runs the BELLA pipeline (logan.Overlapper) on simulated
// reads of a synthetic genome at 15x coverage, 2-8 kbp, 12% error: k-mer
// counting, pruning, the sparse matrix, SpGEMM, binning, X-drop extension
// and filtering. Every timed call is one full run, so its latency is the
// time to solution.
const (
	overlapGenomeLen = 60_000
	overlapCoverage  = 15
	// overlapReads fixes the read count (about 15x coverage of the
	// genome), so reads/s compares across seeds.
	overlapReads = 175
	overlapErr   = 0.12
	overlapX     = 100
	// overlapMinTrue is the genomic overlap a read pair needs to count as
	// a true overlap when recall and precision are scored.
	overlapMinTrue = 2000
)

func runOverlap(ctx context.Context, o opts, r *report) error {
	rng := rand.New(rand.NewSource(mix(o.seed, 3)))
	g := genome.Synthetic(rng, "genome", genome.SyntheticOptions{Length: overlapGenomeLen})
	rs := genome.Simulate(rng, g, genome.SimOptions{
		Coverage: overlapCoverage + 4, MinLen: 2000, MaxLen: 8000, ErrorRate: overlapErr,
	})
	rs.Reads = rs.Reads[:min(overlapReads, len(rs.Reads))]
	reads := make([]logan.Read, len(rs.Reads))
	for i, rd := range rs.Reads {
		reads[i] = logan.Read{Name: rd.Name(), Seq: rd.Seq}
	}
	cfg := logan.DefaultOverlapConfig(overlapCoverage, overlapErr, overlapX)

	// Set-up is engine start to the first result: the engine, the
	// Overlapper and one alignment of the first read's first kilobase,
	// which pays the lazy initialisation of pools and workspaces.
	type stack struct {
		eng *logan.Aligner
		ov  *logan.Overlapper
	}
	first1k := reads[0].Seq[:1000]
	warm := []logan.Pair{{Query: first1k, Target: first1k, SeedLen: 17}}
	s, setup, err := repeatSetup(9, func() (stack, error) {
		eng, err := logan.NewAligner(logan.EngineOptions{})
		if err != nil {
			return stack{}, err
		}
		ov, err := logan.NewOverlapper(eng, logan.OverlapperOptions{})
		if err == nil {
			_, _, err = eng.Align(ctx, warm, logan.DefaultConfig(overlapX))
		}
		if err != nil {
			eng.Close()
			return stack{}, err
		}
		return stack{eng, ov}, nil
	}, func(s stack) { s.eng.Close() })
	if err != nil {
		return fmt.Errorf("engine start: %w", err)
	}
	defer s.eng.Close()
	r.set("setup_s", setup)
	r.figure("setup_s", "s", setup)

	// The first run is untimed: it fixes the expected PAF and is scored
	// against the simulated ground truth.
	first, err := s.ov.Run(ctx, reads, cfg)
	if err != nil {
		return fmt.Errorf("first overlap run: %w", err)
	}
	var want bytes.Buffer
	if err := logan.WritePAF(&want, first.Records); err != nil {
		return err
	}
	predicted := make([]bella.Overlap, len(first.Records))
	for i, rec := range first.Records {
		predicted[i] = bella.Overlap{I: int32(rec.QIndex), J: int32(rec.TIndex)}
	}
	acc := bella.Evaluate(rs, predicted, overlapMinTrue)

	var (
		wall, nReads, cells float64
		lats                []float64
		stages              [7][]float64
		got                 bytes.Buffer
	)
	before := registrySamples(s.eng.Telemetry())
	deadline := time.Now().Add(seconds(o.seconds))
	for time.Now().Before(deadline) && ctx.Err() == nil {
		r.attempted++
		start := time.Now()
		res, err := s.ov.Run(ctx, reads, cfg)
		d := since(start)
		if err != nil {
			r.failed++
			r.problem("overlap run: %v", err)
			continue
		}
		got.Reset()
		if err := logan.WritePAF(&got, res.Records); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
			r.failed++
			r.problem("overlap run %d: PAF differs from the first run's (%d vs %d bytes, err %v)", r.attempted, got.Len(), want.Len(), err)
		}
		t := res.Stats.Times
		for i, sd := range []time.Duration{t.Count, t.Prune, t.Matrix, t.SpGEMM, t.Binning, t.Alignment, t.Filter} {
			stages[i] = append(stages[i], sd.Seconds())
		}
		lats = append(lats, d)
		wall += d
		nReads += float64(res.Stats.Reads)
		cells += float64(res.Stats.Cells)
	}
	after := registrySamples(s.eng.Telemetry())

	r.set("ops_per_s", ratio(nReads, wall))
	r.set("gcups", ratio(cells, wall)/1e9)
	r.set("p50_ms", 1e3*median(lats))
	r.figure("overlap_s", "s", median(lats))
	r.figure("overlap_reads_per_s", "1/s", ratio(nReads, wall))
	r.figure("reads", "count", float64(len(reads)))
	r.figure("recall", "ratio", acc.Recall)
	r.figure("precision", "ratio", acc.Precision)

	if o.trace {
		st := first.Stats
		r.set("xdrop.cells", float64(st.Cells))
		kernelLayer(r, before, after, wall)
		names := []string{"bella.count_s", "bella.prune_s", "bella.matrix_s", "bella.spgemm_s",
			"bella.binning_s", "overlap.align_s", "overlap.filter_s"}
		r.wall = wall
		for i, name := range names {
			r.set(name, median(stages[i]))
			var sum float64
			for _, v := range stages[i] {
				sum += v
			}
			r.rows = append(r.rows, row{name[:len(name)-2], sum})
		}
		r.set("bella.candidate_pairs", float64(st.CandidatePairs))
		r.set("bella.matrix_nnz", float64(st.MatrixNNZ))
		r.set("overlap.accept_ratio", ratio(float64(len(first.Records)), float64(st.CandidatePairs)))
		r.set("overlap.recall", acc.Recall)
		r.set("overlap.precision", acc.Precision)
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
