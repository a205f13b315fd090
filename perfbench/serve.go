package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"logan"
	"logan/internal/seq"
)

// serve-align drives a logan-serve child with default flags (CPU
// backend, coalescer and result cache on) over loopback. Each request is
// serveReqPairs unique pairs of 500-1,500 bp at 15% error, so the cache
// never hits. The run has two phases: an open loop of Poisson arrivals
// at serveRate requests/s, for the latency distribution at a stated
// load, then a closed loop on nproc keep-alive connections, for
// throughput and for the gated median latency. The open-loop median is
// reported but not gated: at this load the vCPUs idle between requests,
// and on a shared host their wake-up delay moves it by a quarter from
// run to run, while the closed loop keeps them busy.
const (
	serveReqPairs = 16
	// serveRate is the fixed open-loop arrival rate, about half of what
	// the closed loop sustains on a 2-vCPU host, so latency is measured
	// below saturation. It is fixed rather than derived from a measured
	// capacity, so two commits are compared at the same offered load.
	serveRate = 100.0
	// serveOpenShare is the share of the run's seconds given to the open
	// loop; at 25 s it yields about 1,000 arrivals, enough for a p99 with
	// ten samples beyond it.
	serveOpenShare = 0.45
	// lagLimit is the largest loadgen.lag_p99_ms a valid run may show: a
	// generator later than this no longer offers the scheduled load.
	lagLimit = 50 * time.Millisecond
)

// The JSON shapes of POST /align (see cmd/logan-serve).
type pairJSON struct {
	Query   string `json:"query"`
	Target  string `json:"target"`
	SeedQ   int    `json:"seedQ"`
	SeedT   int    `json:"seedT"`
	SeedLen int    `json:"seedLen"`
}

type alignmentJSON struct {
	Score  int32 `json:"score"`
	QBegin int   `json:"qBegin"`
	QEnd   int   `json:"qEnd"`
	TBegin int   `json:"tBegin"`
	TEnd   int   `json:"tEnd"`
	Cells  int64 `json:"cells"`
}

type alignResponse struct {
	Alignments []alignmentJSON `json:"alignments"`
	Stats      struct {
		Cells int64 `json:"cells"`
	} `json:"stats"`
}

// requestPairs generates request idx of a run: fixed by (seed, idx) and
// distinct for every idx, so no two bodies of a run repeat.
func requestPairs(seed int64, idx int) []logan.Pair {
	rng := rand.New(rand.NewSource(mix(seed, uint64(idx)+1<<32)))
	set := seq.RandPairSet(rng, seq.PairSetOptions{
		N: serveReqPairs, MinLen: 500, MaxLen: 1500, ErrorRate: 0.15, SeedLen: 17,
	})
	out := make([]logan.Pair, len(set))
	for i, p := range set {
		out[i] = logan.Pair{Query: p.Query, Target: p.Target, SeedQ: p.SeedQPos, SeedT: p.SeedTPos, SeedLen: p.SeedLen}
	}
	return out
}

func requestBody(pairs []logan.Pair) ([]byte, error) {
	js := make([]pairJSON, len(pairs))
	for i, p := range pairs {
		js[i] = pairJSON{Query: string(p.Query), Target: string(p.Target), SeedQ: p.SeedQ, SeedT: p.SeedT, SeedLen: p.SeedLen}
	}
	return json.Marshal(map[string]any{"pairs": js})
}

// call is one /align request as the client saw it.
type call struct {
	idx             int
	due, sent, done time.Time
	status          int
	spans           map[string]time.Duration
	alignments      []alignmentJSON
	cells           int64
	err             error
}

// server is a running logan-serve child.
type server struct {
	cmd  *exec.Cmd
	base string
	// exited is closed once the process has been waited for; waitErr is
	// its exit status, readable after that.
	exited  chan struct{}
	waitErr error
}

// startServer launches logan-serve on a free loopback port and waits for
// /readyz.
func startServer(ctx context.Context, bin string, c *http.Client) (*server, error) {
	if bin == "" {
		return nil, errors.New("no logan-serve binary (-serve-bin); run through run.sh")
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		cmd := exec.Command(bin, "-addr", addr)
		cmd.Stdout = io.Discard
		cmd.Stderr = os.Stderr
		// The child dies with this process even if it is killed outright.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start logan-serve: %w", err)
		}
		s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
		go func() {
			s.waitErr = cmd.Wait()
			close(s.exited)
		}()
		if lastErr = s.waitReady(ctx, c); lastErr == nil {
			return s, nil
		}
		s.stop()
	}
	return nil, lastErr
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a loopback port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (s *server) waitReady(ctx context.Context, c *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("logan-serve exited before ready: %v", s.waitErr)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := c.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return errors.New("logan-serve not ready within 30s")
}

// stop sends SIGTERM and waits for the process to exit (SIGKILL after
// ten seconds), which frees its port. Calling it again is harmless.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an exit in between is fine: Wait reports it
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill() // as above
		<-s.exited
	}
}

func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}
}

func runServe(ctx context.Context, o opts, r *report) error {
	c := newClient()
	defer c.CloseIdleConnections()
	srv, setup, err := repeatSetup(5, func() (*server, error) {
		return startServer(ctx, o.serveBin, c)
	}, func(s *server) {
		c.CloseIdleConnections()
		s.stop()
	})
	if err != nil {
		return err
	}
	defer srv.stop()
	r.set("setup_s", setup)
	r.figure("setup_s", "s", setup)

	// Warm the connections and the engine off the clock, on request
	// numbers the measured phases never use.
	for i := 0; i < 2*runtime.NumCPU(); i++ {
		cl := send(ctx, c, srv.base, o.seed, -1-i)
		if cl.err != nil || cl.status != http.StatusOK {
			return fmt.Errorf("warm-up request: status %d: %v", cl.status, cl.err)
		}
	}

	m0, err := scrape(c, srv.base)
	if err != nil {
		return err
	}
	openSecs := serveOpenShare * o.seconds
	open := openLoop(ctx, c, srv.base, o.seed, openSecs)
	m1, err := scrape(c, srv.base)
	if err != nil {
		return err
	}
	closed, closedWall := closedLoop(ctx, c, srv.base, o.seed, len(open), o.seconds-openSecs)
	m2, err := scrape(c, srv.base)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return err
	}
	c.CloseIdleConnections()
	srv.stop()

	all := append(append([]call(nil), open...), closed...)
	var sumCells int64
	for i := range all {
		sumCells += all[i].cells
	}
	checkCalls(ctx, r, o.seed, all)

	// Isolation: a cache hit would put results in the coalescer numbers
	// that no coalescing produced, and would skip kernel work.
	hits := delta(m0, m2, "logan_cache_hits_total")
	misses := delta(m0, m2, "logan_cache_misses_total")
	if hits != 0 {
		r.problem("serve-align: %.0f result-cache hits; every request body must be unique", hits)
	}
	if got := delta(m0, m2, "logan_kernel_cells_total"); got != float64(sumCells) {
		r.problem("serve-align: kernel cells counter moved by %.0f, responses report %d", got, sumCells)
	}

	lat, lag, wait, admit, resid := openStats(open)
	var closedPairs, closedCells float64
	var closedLat []float64
	for _, cl := range closed {
		if cl.status == http.StatusOK {
			closedPairs += serveReqPairs
			closedCells += float64(cl.cells)
			closedLat = append(closedLat, ms(cl.done.Sub(cl.sent)))
		}
	}
	p50 := median(lat)
	p99v, p99ok := p99(lat)
	lagP99, _ := p99(lag)
	if lagP99 > ms(lagLimit) {
		r.problem("serve-align: load generator fell behind: lag p99 %.2f ms > %v", lagP99, lagLimit)
	}
	r.set("ops_per_s", ratio(closedPairs, closedWall))
	r.set("gcups", ratio(closedCells, closedWall)/1e9)
	r.set("p50_ms", median(closedLat))
	r.set("peak_rss_mb", rss)
	r.figure("align_p50_ms", "ms", p50)
	if p99ok {
		r.figure("align_p99_ms", "ms", p99v)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: align_p99_ms not reported: %d open-loop samples leave fewer than 10 beyond p99\n", len(lat))
	}
	r.figure("align_pairs_per_s", "1/s", ratio(closedPairs, closedWall))
	r.figure("closed_p50_ms", "ms", median(closedLat))
	r.figure("open_requests", "count", float64(len(open)))
	r.figure("closed_requests", "count", float64(len(closed)))
	r.figure("peak_rss_mb", "MB", rss)

	if o.trace {
		var openCells float64
		for _, cl := range open {
			openCells += float64(cl.cells)
		}
		r.set("xdrop.cells", openCells)
		kernelLayer(r, m1, m2, closedWall)
		r.set("engine.batches_per_request", ratio(delta(m0, m1, "logan_engine_batches_total"), float64(len(open))))
		if v, ok := p99(wait); ok {
			r.set("coalescer.wait_p99_ms", v)
		}
		r.set("coalescer.wait_p50_ms", median(wait))
		r.set("coalescer.requests_per_batch", ratio(delta(m1, m2, "logan_coalescer_merged_requests_total"),
			delta(m1, m2, "logan_coalescer_merged_batches_total")))
		r.set("coalescer.direct_ratio", ratio(delta(m1, m2, "logan_coalescer_direct_total"), float64(len(closed))))
		r.set("coalescer.shed", delta(m0, m2, "logan_coalescer_shed_total"))
		r.set("cache.hit_ratio", ratio(hits, hits+misses))
		r.set("serve.admit_ms", median(admit))
		r.set("serve.open_p50_ms", p50)
		if p99ok {
			r.set("serve.open_p99_ms", p99v)
		}
		r.set("http.residual_ms", median(resid))
		r.set("loadgen.lag_p99_ms", lagP99)
		traceTable(r, open)
	}
	return nil
}

// send posts request idx and records what came back.
func send(ctx context.Context, c *http.Client, base string, seed int64, idx int) call {
	cl := call{idx: idx}
	body, err := requestBody(requestPairs(seed, idx))
	if err != nil {
		cl.err = err
		return cl
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/align", bytes.NewReader(body))
	if err != nil {
		cl.err = err
		return cl
	}
	req.Header.Set("Content-Type", "application/json")
	cl.sent = time.Now()
	resp, err := c.Do(req)
	if err != nil {
		cl.done = time.Now()
		cl.err = err
		return cl
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	cl.done = time.Now()
	cl.status = resp.StatusCode
	cl.spans, cl.err = parseTrace(resp.Header.Get("X-Logan-Trace"))
	if err != nil {
		cl.err = err
	}
	if cl.err != nil || cl.status != http.StatusOK {
		return cl
	}
	var ar alignResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		cl.err = fmt.Errorf("decode response: %w", err)
		return cl
	}
	cl.alignments, cl.cells = ar.Alignments, ar.Stats.Cells
	return cl
}

// parseTrace reads an X-Logan-Trace header, "stage=duration;..." in Go's
// duration syntax (microseconds print as "µs", U+00B5). A stage seen
// twice sums, and a shed request's trace ends in a "shed" span.
func parseTrace(h string) (map[string]time.Duration, error) {
	spans := map[string]time.Duration{}
	if h == "" {
		return spans, nil
	}
	for _, part := range strings.Split(h, ";") {
		stage, dur, ok := strings.Cut(part, "=")
		if !ok || stage == "" {
			return nil, fmt.Errorf("X-Logan-Trace span %q", part)
		}
		d, err := time.ParseDuration(dur)
		if err != nil {
			return nil, fmt.Errorf("X-Logan-Trace span %q: %w", part, err)
		}
		spans[stage] += d
	}
	return spans, nil
}

// openLoop sends requests 0..n-1 at Poisson arrival times drawn from the
// seed, over at most nproc connections. A request that finds every
// connection busy waits, and that wait counts: latency runs from the due
// time, and the send delay is the generator's lag.
func openLoop(ctx context.Context, c *http.Client, base string, seed int64, secs float64) []call {
	rng := rand.New(rand.NewSource(mix(seed, 1)))
	var due []time.Duration
	for t := rng.ExpFloat64() / serveRate; t < secs; t += rng.ExpFloat64() / serveRate {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	calls := make([]call, len(due))
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				calls[i] = send(ctx, c, base, seed, i)
				calls[i].due = start.Add(due[i])
			}
		}()
	}
	for i, d := range due {
		if wait := time.Until(start.Add(d)); wait > 0 {
			time.Sleep(wait)
		}
		select {
		case next <- i:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			calls = calls[:i]
			break
		}
	}
	close(next)
	wg.Wait()
	return calls
}

// closedLoop keeps nproc connections busy with back-to-back requests,
// numbered from first, for the given seconds, and returns the calls and
// the wall time until the last one completed.
func closedLoop(ctx context.Context, c *http.Client, base string, seed int64, first int, secs float64) ([]call, float64) {
	var (
		mu    sync.Mutex
		calls []call
		wg    sync.WaitGroup
		next  atomic.Int64
	)
	next.Store(int64(first))
	start := time.Now()
	deadline := start.Add(seconds(secs))
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				cl := send(ctx, c, base, seed, int(next.Add(1)-1))
				cl.due = cl.sent
				mu.Lock()
				calls = append(calls, cl)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	var last time.Time
	for _, cl := range calls {
		if cl.done.After(last) {
			last = cl.done
		}
	}
	return calls, last.Sub(start).Seconds()
}

// openStats returns, per successful open-loop request, the latency from
// its due time, the generator's lag, the coalescer wait and admit spans,
// and the HTTP residual (client time from send minus the trace spans),
// all in milliseconds.
func openStats(open []call) (lat, lag, wait, admit, resid []float64) {
	for _, cl := range open {
		if cl.status != http.StatusOK || cl.err != nil {
			continue
		}
		lat = append(lat, ms(cl.done.Sub(cl.due)))
		lag = append(lag, ms(cl.sent.Sub(cl.due)))
		wait = append(wait, ms(cl.spans["coalesce_wait"]))
		admit = append(admit, ms(cl.spans["admit"]))
		var spans time.Duration
		for _, d := range cl.spans {
			spans += d
		}
		resid = append(resid, ms(cl.done.Sub(cl.sent)-spans))
	}
	return
}

// traceTable attributes the open loop's mean request latency (from the
// due time) to the generator's lag and the server's trace spans; the
// residual is encode, network and scheduling.
func traceTable(r *report, open []call) {
	stages := []string{"admit", "coalesce_wait", "partition", "kernel", "scatter", "shed"}
	sums := map[string]float64{}
	var lag, wall float64
	n := 0
	for _, cl := range open {
		if cl.err != nil {
			continue
		}
		n++
		wall += cl.done.Sub(cl.due).Seconds()
		lag += cl.sent.Sub(cl.due).Seconds()
		for st, d := range cl.spans {
			sums[st] += d.Seconds()
		}
	}
	if n == 0 {
		return
	}
	r.wall = wall / float64(n)
	r.rows = append(r.rows, row{"loadgen.lag", lag / float64(n)})
	for _, st := range stages {
		r.rows = append(r.rows, row{"serve." + st, sums[st] / float64(n)})
	}
}

// checkCalls counts every request, fails the ones that did not return
// 200, and compares every 200 response with a library Aligner result for
// the same pairs, computed after the timed window.
func checkCalls(ctx context.Context, r *report, seed int64, calls []call) {
	eng, err := logan.NewAligner(logan.EngineOptions{})
	if err != nil {
		r.problem("reference engine: %v", err)
		return
	}
	defer eng.Close()
	cfg := logan.DefaultConfig(100)
	for _, cl := range calls {
		r.attempted++
		if cl.err != nil || cl.status != http.StatusOK {
			r.failed++
			r.problem("request %d: status %d: %v", cl.idx, cl.status, cl.err)
			continue
		}
		want, _, err := eng.Align(ctx, requestPairs(seed, cl.idx), cfg)
		if err != nil {
			r.failed++
			r.problem("request %d: reference align: %v", cl.idx, err)
			continue
		}
		if len(cl.alignments) != len(want) {
			r.failed++
			r.problem("request %d: %d alignments, want %d", cl.idx, len(cl.alignments), len(want))
			continue
		}
		for i, w := range want {
			g := cl.alignments[i]
			if g != (alignmentJSON{Score: w.Score, QBegin: w.QBegin, QEnd: w.QEnd, TBegin: w.TBegin, TEnd: w.TEnd, Cells: w.Cells}) {
				r.failed++
				r.problem("request %d pair %d: served %+v, library %+v", cl.idx, i, g, w)
				break
			}
		}
	}
}
