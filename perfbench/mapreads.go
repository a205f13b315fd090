package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"logan"
	"logan/internal/genome"
)

// map-reads places mapReads simulated reads (1-5 kbp, 5% error) on a
// 1 Mbp repeat-free synthetic reference with logan.Mapper. Building the
// index is the set-up; every timed call maps the whole read set. The read
// count is fixed, so reads/s compares across seeds.
const (
	mapRefLen = 1_000_000
	mapReads  = 160
	mapX      = 100
)

func runMap(ctx context.Context, o opts, r *report) error {
	rng := rand.New(rand.NewSource(mix(o.seed, 2)))
	g := genome.Synthetic(rng, "ref", genome.SyntheticOptions{Length: mapRefLen})
	rs := genome.Simulate(rng, g, genome.SimOptions{
		Coverage: 0.7, MinLen: 1000, MaxLen: 5000, ErrorRate: 0.05,
	})
	rs.Reads = rs.Reads[:min(mapReads, len(rs.Reads))]
	reads := make([]logan.Read, len(rs.Reads))
	for i, rd := range rs.Reads {
		reads[i] = logan.Read{Name: rd.Name(), Seq: rd.Seq}
	}
	refFasta := ">" + g.Name + "\n" + g.Seq.String() + "\n"

	eng, err := logan.NewAligner(logan.EngineOptions{})
	if err != nil {
		return err
	}
	defer eng.Close()
	m, setup, err := repeatSetup(3, func() (*logan.Mapper, error) {
		m, err := logan.NewMapper(eng, logan.MapperOptions{})
		if err != nil {
			return nil, err
		}
		_, err = m.Build(ctx, strings.NewReader(refFasta), logan.IndexOptions{})
		return m, err
	}, func(*logan.Mapper) {})
	if err != nil {
		return fmt.Errorf("index build: %w", err)
	}
	r.set("setup_s", setup)
	r.figure("setup_s", "s", setup)

	cfg := logan.DefaultMapConfig(mapX)
	// The first call warms the engine and fixes the expected PAF; it is
	// checked against the simulated loci.
	first, err := m.Map(ctx, reads, cfg)
	if err != nil {
		return fmt.Errorf("first map: %w", err)
	}
	var want bytes.Buffer
	if err := logan.WritePAF(&want, first.Records); err != nil {
		return err
	}
	trueLocus := checkPlacement(r, rs, first.Records)

	var (
		lat, seedS, extendS, residS []float64
		wall, nReads, cells         float64
		got                         bytes.Buffer
	)
	before := registrySamples(eng.Telemetry())
	deadline := time.Now().Add(seconds(o.seconds))
	for time.Now().Before(deadline) && ctx.Err() == nil {
		r.attempted++
		start := time.Now()
		res, err := m.Map(ctx, reads, cfg)
		d := since(start)
		if err != nil {
			r.failed++
			r.problem("map: %v", err)
			continue
		}
		got.Reset()
		if err := logan.WritePAF(&got, res.Records); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
			r.failed++
			r.problem("map call %d: PAF differs from the first call's (%d vs %d bytes, err %v)", r.attempted, got.Len(), want.Len(), err)
		}
		st := res.Stats
		lat = append(lat, d)
		seedS = append(seedS, st.Times.Seed.Seconds())
		extendS = append(extendS, st.Times.Extend.Seconds())
		residS = append(residS, d-st.Times.Seed.Seconds()-st.Times.Extend.Seconds())
		wall += d
		nReads += float64(st.Reads)
		cells += float64(st.Cells)
	}
	after := registrySamples(eng.Telemetry())

	r.set("ops_per_s", ratio(nReads, wall))
	r.set("gcups", ratio(cells, wall)/1e9)
	r.set("p50_ms", 1e3*median(lat))
	r.figure("map_reads_per_s", "1/s", ratio(nReads, wall))
	r.figure("map_p50_ms", "ms", 1e3*median(lat))
	r.figure("reads_per_call", "count", float64(len(reads)))

	if o.trace {
		st := first.Stats
		r.set("xdrop.cells", float64(st.Cells))
		kernelLayer(r, before, after, wall)
		r.set("mapper.seed_s", median(seedS))
		r.set("mapper.extend_s", median(extendS))
		r.set("mapper.residual_s", median(residS))
		n := float64(st.Reads)
		r.set("minidx.anchors_per_read", ratio(float64(st.Anchors), n))
		r.set("chain.chains_per_read", ratio(float64(st.Chains), n))
		r.set("mapper.extensions_per_read", ratio(float64(st.Extensions), n))
		r.set("mapper.mapped_ratio", ratio(float64(st.Mapped), n))
		r.set("mapper.true_locus_ratio", trueLocus)

		// Self time over all timed calls: seeding, then the extension
		// stage split into the engine's kernel span and the rest of it.
		r.wall = wall
		kernel, _ := stageDelta(before, after, "kernel")
		var seed, extend float64
		for i := range seedS {
			seed += seedS[i]
			extend += extendS[i]
		}
		r.rows = append(r.rows,
			row{"mapper.seed", seed},
			row{"mapper.extend.kernel", kernel},
			row{"mapper.extend.other", extend - kernel})
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

// checkPlacement requires at least 99% of placed reads to have their
// primary record on the simulated locus and strand (overlapping at least
// half the read), and returns that share.
func checkPlacement(r *report, rs genome.ReadSet, recs []logan.OverlapRecord) float64 {
	primary := map[int]logan.OverlapRecord{}
	for _, rec := range recs {
		if _, ok := primary[rec.QIndex]; !ok {
			primary[rec.QIndex] = rec
		}
	}
	correct := 0
	for i, rd := range rs.Reads {
		rec, ok := primary[i]
		if !ok {
			continue
		}
		strand := byte('+')
		if rd.RC {
			strand = '-'
		}
		lo, hi := max(rec.TStart, rd.Start), min(rec.TEnd, rd.End)
		if rec.Strand == strand && hi-lo >= len(rd.Seq)/2 {
			correct++
		}
	}
	share := ratio(float64(correct), float64(len(primary)))
	if len(primary) == 0 || share < 0.99 {
		r.problem("map-reads: %d of %d placed reads at the true locus, want at least 99%%", correct, len(primary))
	}
	return share
}
