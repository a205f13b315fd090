package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"logan"
	"logan/internal/cluster"
	"logan/internal/genome"
	"logan/internal/seq"
)

// jobsTestFasta builds a deterministic FASTA data set with real overlaps.
func jobsTestFasta(t testing.TB, seed int64, genomeLen int) []byte {
	return simulateFasta(t, seed, genomeLen, 900, 2000)
}

// longJobQuery is the configuration longJobFasta is sized for.
const longJobQuery = "?x=10000&coverage=5&errorRate=0.12"

// longJobFasta is a data set whose overlap job under longJobQuery runs
// for about 30 s on a one-thread engine (2 vCPU Xeon): its 6-10 kbp
// reads make every extension a near-full DP. Tests cancel it long before
// the end, so anything that waits on its worker proves the cancel took.
func longJobFasta(t testing.TB) []byte {
	return simulateFasta(t, 22, 100_000, 6000, 10_000)
}

// simulateFasta samples 5x-coverage reads of the given length range from
// a deterministic synthetic genome.
func simulateFasta(t testing.TB, seed int64, genomeLen, minLen, maxLen int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := genome.Synthetic(rng, "t", genome.SyntheticOptions{Length: genomeLen, RepeatFrac: 0.03, RepeatLen: 1200})
	rs := genome.Simulate(rng, g, genome.SimOptions{Coverage: 5, MinLen: minLen, MaxLen: maxLen, ErrorRate: 0.12})
	var buf bytes.Buffer
	if err := seq.WriteFasta(&buf, rs.Records()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// jobsTestServer boots a serve stack with the /jobs API enabled on the
// given engine shape.
func jobsTestServer(t *testing.T, opt logan.EngineOptions, mut func(*serveConfig)) (*httptest.Server, *server) {
	t.Helper()
	eng, err := logan.NewAligner(opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultServeConfig()
	cfg.maxWait = time.Millisecond
	if mut != nil {
		mut(&cfg)
	}
	s, err := newServer(eng, cfg)
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		s.Close()
		srv.Close()
		eng.Close()
	})
	return srv, s
}

// postJob submits a FASTA body and returns the job id.
func postJob(t *testing.T, url string, fasta []byte, query string) string {
	t.Helper()
	resp, err := http.Post(url+"/jobs"+query, "application/x-fasta", bytes.NewReader(fasta))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d: %s", resp.StatusCode, body)
	}
	var st jobStatusJSON
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("POST /jobs response %q: %v", body, err)
	}
	if st.ID == "" || st.State != cluster.StateQueued {
		t.Fatalf("POST /jobs response %+v", st)
	}
	return st.ID
}

// getStatus fetches GET /jobs/{id}.
func getStatus(t *testing.T, url, id string) (jobStatusJSON, int) {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return jobStatusJSON{}, resp.StatusCode
	}
	var st jobStatusJSON
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("status %q: %v", body, err)
	}
	return st, resp.StatusCode
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, url, id string, timeout time.Duration) jobStatusJSON {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, code := getStatus(t, url, id)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d", id, code)
		}
		if cluster.TerminalState(st.State) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v (progress %+v)", id, st.State, timeout, st.Progress)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobsLifecycle is the acceptance path: POST FASTA, poll status
// through completion, fetch PAF bit-identical to an offline Overlapper
// run of the same configuration, then DELETE and observe 404 — on both a
// CPU and a Hybrid engine, with and without the coalescer.
func TestJobsLifecycle(t *testing.T) {
	fasta := jobsTestFasta(t, 21, 50_000)
	const query = "?x=20&minOverlap=400&coverage=5&errorRate=0.12"

	// Offline reference: the same pipeline the cmd/bella binary runs.
	refEng, err := logan.NewAligner(logan.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer refEng.Close()
	refOv, _ := logan.NewOverlapper(refEng, logan.OverlapperOptions{})
	refCfg := logan.DefaultOverlapConfig(5, 0.12, 20)
	refCfg.MinOverlap = 400
	refRes, err := refOv.RunFasta(context.Background(), bytes.NewReader(fasta), refCfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := logan.WritePAF(&want, refRes.Records); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("offline reference produced no overlaps; test set too small")
	}

	for _, tc := range []struct {
		name string
		opt  logan.EngineOptions
		mut  func(*serveConfig)
	}{
		{"cpu-direct", logan.EngineOptions{}, nil},
		{"cpu-coalesced", logan.EngineOptions{}, func(c *serveConfig) { c.jobCoalesce = true }},
		{"hybrid", logan.EngineOptions{Backend: logan.Hybrid, GPUs: 2}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := jobsTestServer(t, tc.opt, tc.mut)
			id := postJob(t, srv.URL, fasta, query)

			st := waitJob(t, srv.URL, id, 60*time.Second)
			if st.State != cluster.StateDone {
				t.Fatalf("job finished %s: %s", st.State, st.Error)
			}
			if st.Progress == nil || st.Progress.Stage != string(logan.StageDone) {
				t.Fatalf("done job progress %+v", st.Progress)
			}
			if st.Progress.ReadsParsed == 0 || st.Progress.CandidatePairs == 0 ||
				st.Progress.ExtensionsDone != st.Progress.ExtensionsTotal {
				t.Errorf("implausible final progress %+v", st.Progress)
			}
			if st.Overlaps != len(refRes.Records) {
				t.Errorf("job found %d overlaps, offline run %d", st.Overlaps, len(refRes.Records))
			}

			resp, err := http.Get(srv.URL + "/jobs/" + id + "/paf")
			if err != nil {
				t.Fatal(err)
			}
			paf, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET paf: status %d: %s", resp.StatusCode, paf)
			}
			if !bytes.Equal(paf, want.Bytes()) {
				t.Errorf("served PAF diverges from the offline pipeline (%d vs %d bytes)", len(paf), want.Len())
			}

			req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+id, nil)
			resp, err = http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("DELETE: status %d", resp.StatusCode)
			}
			if _, code := getStatus(t, srv.URL, id); code != http.StatusNotFound {
				t.Fatalf("GET after DELETE: status %d, want 404", code)
			}
		})
	}
}

// waitExtending polls until the job runs its extension stage (progress
// reaches the router with each lease extend).
func waitExtending(t *testing.T, url, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, code := getStatus(t, url, id)
		if code != http.StatusOK {
			t.Fatalf("GET: %d", code)
		}
		if cluster.TerminalState(st.State) {
			t.Fatalf("job finished (%s) before reaching the extension stage", st.State)
		}
		if st.State == cluster.StateRunning && st.Progress != nil && st.Progress.ExtensionsTotal > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached the extension stage")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// deleteJob issues DELETE /jobs/{id} and returns the status code.
func deleteJob(t *testing.T, url, id string) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, url+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestJobsCancel aborts a long-running job mid-extension and proves the
// run actually stopped, not only that the router forgot it: with one
// worker, a small job submitted after the DELETE can only run once the
// canceled execution has returned.
func TestJobsCancel(t *testing.T) {
	srv, s := jobsTestServer(t, logan.EngineOptions{Threads: 1}, func(c *serveConfig) { c.jobWorkers = 1 })
	id := postJob(t, srv.URL, longJobFasta(t), longJobQuery)
	waitExtending(t, srv.URL, id)

	start := time.Now()
	if code := deleteJob(t, srv.URL, id); code != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", code)
	}
	if _, code := getStatus(t, srv.URL, id); code != http.StatusNotFound {
		t.Fatalf("GET after DELETE: %d, want 404", code)
	}
	if n := s.tele.Snapshot().Int("logan_jobs_canceled_total"); n != 1 {
		t.Errorf("canceled jobs counted %d, want 1", n)
	}

	// The worker learns of the cancel at its next extend and the backend
	// observes the context per pair; only then can it lease the next job.
	small := postJob(t, srv.URL, []byte(">r1\nACGTACGTACGTACGTACGTACGTACGTACGT\n>r2\nACGTACGTACGTACGTACGTACGTACGTACGT\n"), "")
	if st := waitJob(t, srv.URL, small, 10*time.Second); st.State != cluster.StateDone {
		t.Fatalf("job after the cancel finished %s: %s", st.State, st.Error)
	}
	if got := time.Since(start); got > 10*time.Second {
		t.Fatalf("cancellation took %v", got)
	}
}

// TestJobsAdmissionAndErrors covers the error surface: invalid configs,
// invalid FASTA, full stores, unknown ids, data-dir sandboxing, and the
// disabled API.
func TestJobsAdmissionAndErrors(t *testing.T) {
	fasta := jobsTestFasta(t, 23, 30_000)
	srv, s := jobsTestServer(t, logan.EngineOptions{}, func(c *serveConfig) {
		c.maxJobs = 2
		c.jobWorkers = 1
		c.jobBodyLimit = int64(len(fasta) + 1024)
	})

	post := func(body, ct, query string) (int, string) {
		resp, err := http.Post(srv.URL+"/jobs"+query, ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := post("ACGT", "application/x-fasta", "?k=99"); code != http.StatusBadRequest {
		t.Errorf("k=99: status %d (%s), want 400", code, body)
	}
	if code, body := post("ACGT", "application/x-fasta", "?x=1000000"); code != http.StatusBadRequest {
		t.Errorf("x over max-x: status %d (%s), want 400", code, body)
	}
	if code, body := post("ACGT", "application/x-fasta", "?x=abc"); code != http.StatusBadRequest {
		t.Errorf("x=abc: status %d (%s), want 400", code, body)
	}
	if code, body := post("", "application/x-fasta", ""); code != http.StatusBadRequest {
		t.Errorf("empty body: status %d (%s), want 400", code, body)
	}
	if code, body := post(string(fasta)+strings.Repeat("A", 2048), "application/x-fasta", ""); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d (%.100s), want 413", code, body)
	}
	// fastaPath submissions need -job-data-dir.
	if code, body := post(`{"fastaPath":"x.fa"}`, "application/json", ""); code != http.StatusBadRequest {
		t.Errorf("fastaPath without data dir: status %d (%s), want 400", code, body)
	}

	// A malformed FASTA is accepted (the parse is part of the job) and
	// fails asynchronously.
	id := postJob(t, srv.URL, []byte("not fasta at all"), "")
	st := waitJob(t, srv.URL, id, 30*time.Second)
	if st.State != cluster.StateFailed || st.Error == "" {
		t.Errorf("bad FASTA job: %+v, want failed with error", st)
	}
	// Its PAF is unavailable.
	resp, err := http.Get(srv.URL + "/jobs/" + id + "/paf")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("paf of failed job: status %d, want 409", resp.StatusCode)
	}

	// Unknown ids are 404 everywhere.
	for _, p := range []string{"/jobs/deadbeef", "/jobs/deadbeef/paf"} {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", p, resp.StatusCode)
		}
	}

	// Fill the store with live jobs: maxJobs=2, one worker. Two real jobs
	// occupy the store (one running, one queued; the failed job above is
	// terminal and gets evicted), so a third submission sheds with 429.
	idA := postJob(t, srv.URL, fasta, "?x=500&coverage=5&errorRate=0.12")
	idB := postJob(t, srv.URL, fasta, "?x=500&coverage=5&errorRate=0.12")
	code, body := post(string(fasta), "application/x-fasta", "")
	if code != http.StatusTooManyRequests {
		t.Errorf("submission to full store: status %d (%.100s), want 429", code, body)
	}
	if s.tele.Snapshot().Int("logan_jobs_rejected_total") == 0 {
		t.Error("rejected submission not counted")
	}
	// Drain so cleanup does not race long-running work.
	for _, id := range []string{idA, idB} {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

// TestJobsByteBudget checks the aggregate spec-byte budget: a job holds
// its reservation until it reaches a terminal state (the spec is kept
// for requeue), so a submission past the budget sheds with 429 even
// though the job-count cap is not reached, and is admitted once the
// holder is canceled.
func TestJobsByteBudget(t *testing.T) {
	fasta := longJobFasta(t)
	srv, s := jobsTestServer(t, logan.EngineOptions{Threads: 1}, func(c *serveConfig) {
		c.jobWorkers = 1
		c.jobBodyLimit = int64(len(fasta) + 1024)
		// Budget fits one job's spec (the FASTA plus a small header), not
		// two.
		c.jobPendingBytes = int64(len(fasta)) + int64(len(fasta))/2
	})
	buffered := func() int64 { return s.tele.Snapshot().Int("logan_jobs_buffered_bytes") }
	post := func() int {
		resp, err := http.Post(srv.URL+"/jobs?x=15&coverage=5&errorRate=0.12", "application/x-fasta", bytes.NewReader(fasta))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Job A occupies the worker for a while. It still holds its
	// reservation once past ingestion.
	idA := postJob(t, srv.URL, fasta, longJobQuery)
	waitExtending(t, srv.URL, idA)
	if got := buffered(); got < int64(len(fasta)) {
		t.Fatalf("running job holds %d buffered bytes, want at least its %d-byte FASTA", got, len(fasta))
	}
	if code := post(); code != http.StatusTooManyRequests {
		t.Errorf("upload past byte budget: status %d, want 429", code)
	}
	// Canceling A makes it terminal: the reservation is released at once.
	if code := deleteJob(t, srv.URL, idA); code != http.StatusNoContent {
		t.Fatalf("DELETE A: status %d", code)
	}
	if got := buffered(); got != 0 {
		t.Errorf("buffered bytes after cancel: %d, want 0", got)
	}
	if code := post(); code != http.StatusAccepted {
		t.Errorf("upload after the reservation was released: status %d, want 202", code)
	}
}

// TestJobsResultBudget checks retained-PAF eviction: with a result
// budget of 1.5 results, one finished job fits, and the second
// completion evicts the oldest terminal job (404) while the newest
// result survives.
func TestJobsResultBudget(t *testing.T) {
	fasta := jobsTestFasta(t, 27, 40_000)
	refCfg := logan.DefaultOverlapConfig(5, 0.12, 15)
	refCfg.MinOverlap = 400
	ref := offlinePAF(t, fasta, refCfg)
	srv, _ := jobsTestServer(t, logan.EngineOptions{}, func(c *serveConfig) {
		c.jobResultBytes = int64(len(ref)) * 3 / 2
	})
	const query = "?x=15&minOverlap=400&coverage=5&errorRate=0.12"
	idA := postJob(t, srv.URL, fasta, query)
	stA := waitJob(t, srv.URL, idA, 60*time.Second)
	if stA.State != cluster.StateDone || stA.PAFBytes != len(ref) {
		t.Fatalf("job A: %+v (want done with the %d-byte reference PAF)", stA, len(ref))
	}
	idB := postJob(t, srv.URL, fasta, query)
	stB := waitJob(t, srv.URL, idB, 60*time.Second)
	if stB.State != cluster.StateDone {
		t.Fatalf("job B: %+v", stB)
	}
	if _, code := getStatus(t, srv.URL, idA); code != http.StatusNotFound {
		t.Errorf("oldest result not evicted: GET A = %d, want 404", code)
	}
	if got := getPAF(t, srv.URL, idB); !bytes.Equal(got, ref) {
		t.Errorf("newest result diverges from the offline pipeline (%d vs %d bytes)", len(got), len(ref))
	}
}

// TestJobsDataDir exercises server-side fastaPath submissions and the
// path sandbox.
func TestJobsDataDir(t *testing.T) {
	fasta := jobsTestFasta(t, 24, 30_000)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "reads.fa"), fasta, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "big.fa"), bytes.Repeat([]byte("A"), len(fasta)+2048), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, _ := jobsTestServer(t, logan.EngineOptions{}, func(c *serveConfig) {
		c.jobDataDir = dir
		c.jobBodyLimit = int64(len(fasta) + 1024)
	})

	post := func(req string) (int, string) {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	for _, bad := range []string{
		`{"fastaPath":"../etc/passwd"}`,
		`{"fastaPath":"/etc/passwd"}`,
		`{"fastaPath":""}`,
	} {
		if code, body := post(bad); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", bad, code, body)
		}
	}

	code, body := post(`{"fastaPath":"reads.fa","config":{"x":15,"minOverlap":400,"coverage":5,"errorRate":0.12}}`)
	if code != http.StatusAccepted {
		t.Fatalf("fastaPath submit: status %d (%s)", code, body)
	}
	var st jobStatusJSON
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, srv.URL, st.ID, 60*time.Second)
	if fin.State != cluster.StateDone || fin.Overlaps == 0 {
		t.Fatalf("fastaPath job: %+v", fin)
	}

	// The file is read at submission: a missing one is the client's 400,
	// naming the client's relative path and nothing of the server's
	// layout; one over -job-body-limit is a 413 like an upload.
	code, body = post(`{"fastaPath":"nope.fa"}`)
	if code != http.StatusBadRequest || !strings.Contains(body, `"nope.fa"`) || strings.Contains(body, dir) {
		t.Fatalf("missing-file submit: status %d (%s), want 400 naming only \"nope.fa\"", code, body)
	}
	if code, body := post(`{"fastaPath":"big.fa"}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized-file submit: status %d (%s), want 413", code, body)
	}
}

// TestJobsDisabled checks the -jobs=false surface.
func TestJobsDisabled(t *testing.T) {
	srv, _ := jobsTestServer(t, logan.EngineOptions{}, func(c *serveConfig) { c.jobs = false })
	resp, err := http.Post(srv.URL+"/jobs", "application/x-fasta", strings.NewReader(">r\nACGT\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST with jobs disabled: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/jobs/abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET with jobs disabled: status %d, want 404", resp.StatusCode)
	}
}

// TestJobsStatz checks the /statz jobs block counts a completed run.
func TestJobsStatz(t *testing.T) {
	fasta := jobsTestFasta(t, 25, 30_000)
	srv, _ := jobsTestServer(t, logan.EngineOptions{}, nil)
	id := postJob(t, srv.URL, fasta, "?x=15&minOverlap=400&coverage=5&errorRate=0.12")
	st := waitJob(t, srv.URL, id, 60*time.Second)
	if st.State != cluster.StateDone {
		t.Fatalf("job: %+v", st)
	}

	resp, err := http.Get(srv.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out statzJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Jobs == nil {
		t.Fatal("statz missing jobs block")
	}
	if out.Jobs.Submitted != 1 || out.Jobs.Completed != 1 || out.Jobs.PAFBytes == 0 {
		t.Errorf("jobs statz %+v", out.Jobs)
	}
	if out.Jobs.Running != 0 || out.Jobs.Queued != 0 {
		t.Errorf("jobs gauges not drained: %+v", out.Jobs)
	}
	_ = fmt.Sprintf("%v", out)
}
