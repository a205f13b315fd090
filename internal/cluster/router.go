package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"time"

	"logan/internal/cluster/queue"
	"logan/internal/telemetry"
)

// RouterOptions tunes the router. The zero value of every field but
// Registry selects a production default.
type RouterOptions struct {
	// QueuePath is the write-ahead queue file that makes accepted jobs
	// survive a router restart. Empty keeps jobs in memory only: the
	// single-node runtime, whose workers live and die with the router.
	QueuePath string
	// LeaseTTL is how long a worker may hold a job without extending
	// its lease before the job requeues (default 10s). Workers extend
	// at TTL/3, so a dead worker delays its job by at most one TTL.
	LeaseTTL time.Duration
	// WorkerTTL is how long a registered worker may go without a
	// heartbeat before it is dropped from the registry and the
	// readiness/rollup views (default 3x LeaseTTL).
	WorkerTTL time.Duration
	// MaxRequeues bounds lease-expiry retries per job before it fails
	// terminally (default 3): a job that kills every worker it lands on
	// must not circulate forever.
	MaxRequeues int
	// MaxJobs bounds retained job records (default 64); terminal jobs
	// evict oldest-first to make room, a store full of live jobs sheds.
	MaxJobs int
	// MaxJobBytes bounds one job's FASTA (default 64 MiB) — the router
	// buffers the whole spec for the WAL.
	MaxJobBytes int64
	// PendingBytes bounds the aggregate spec bytes of non-terminal jobs
	// (default 256 MiB); ResultBytes bounds the aggregate retained PAF
	// bytes (default 256 MiB, oldest terminal jobs evicted).
	PendingBytes int64
	ResultBytes  int64
	// Token, when set, is the shared secret workers must present in
	// X-Logan-Cluster-Token; empty leaves the worker API open (trusted
	// network).
	Token string
	// Registry receives the router's instruments (required).
	Registry *telemetry.Registry
}

func (o *RouterOptions) defaults() {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.WorkerTTL <= 0 {
		o.WorkerTTL = 3 * o.LeaseTTL
	}
	if o.MaxRequeues <= 0 {
		o.MaxRequeues = 3
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 64
	}
	if o.MaxJobBytes <= 0 {
		o.MaxJobBytes = 64 << 20
	}
	if o.PendingBytes <= 0 {
		o.PendingBytes = 256 << 20
	}
	if o.ResultBytes <= 0 {
		o.ResultBytes = 256 << 20
	}
}

// workerNameRE constrains worker names to label-safe characters: the
// name becomes the worker="..." label on every rolled-up metric series.
var workerNameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// rjob is one routed job. All fields are guarded by Router.mu.
type rjob struct {
	spec     *Spec  // header fields only: Fasta is nil, payload holds it
	payload  []byte // framed spec, as stored in the WAL
	state    string
	err      string
	worker   string // executing (or last) worker name
	leaseID  string // current lease token; "" when not leased
	leaseExp time.Time
	requeues int
	progress Progress
	paf      []byte
	overlaps int
	reads    int
	cells    int64
	created  time.Time
	started  time.Time
	finished time.Time
	// canceled marks a DELETE on a leased job: the executing worker
	// learns at its next extend and aborts.
	canceled bool
}

// workerState is one registered worker.
type workerState struct {
	id       string
	name     string
	backend  string
	cellsPS  float64 // worker-reported throughput estimate
	seen     time.Time
	joined   time.Time
	snapshot *telemetry.Snapshot // latest pushed registry snapshot
	done     int64
	failed   int64
}

// routerTelemetry are the router's instruments; the logan_jobs_* series
// back the /statz jobs block.
type routerTelemetry struct {
	submitted, completed, failed, canceled, rejected *telemetry.Counter
	pafBytes                                         *telemetry.Counter
	avgDuration                                      *telemetry.Gauge
	requeues, expired, replayedWAL, idemHits         *telemetry.Counter
	staleLeases                                      *telemetry.Counter
}

// Router is the job runtime's front tier: admission (durable when a
// write-ahead queue is configured), leased dispatch to registered
// workers, lease-expiry requeue, and the cluster-wide telemetry rollup.
type Router struct {
	opt RouterOptions
	wal *queue.WAL // nil when memory-only
	t   routerTelemetry

	mu      sync.Mutex
	jobs    map[string]*rjob
	order   []string // insertion order, for eviction
	idem    map[string]string
	pending []string // queued job IDs, FIFO
	workers map[string]*workerState
	wake    chan struct{} // closed+replaced when work arrives
	closed  bool

	pendingBytes int64
	resultBytes  int64
	done         chan struct{}
	loopWG       sync.WaitGroup
}

// NewRouter opens (or creates) the write-ahead queue at opt.QueuePath,
// if one is configured, replays every pending job back into the queued
// state, and starts the lease-expiry loop.
func NewRouter(opt RouterOptions) (*Router, error) {
	if opt.Registry == nil {
		return nil, errors.New("cluster: RouterOptions.Registry is required")
	}
	opt.defaults()
	var (
		wal  *queue.WAL
		recs []queue.Record
	)
	if opt.QueuePath != "" {
		var err error
		if wal, recs, err = queue.Open(opt.QueuePath); err != nil {
			return nil, err
		}
	}
	r := &Router{
		opt:     opt,
		wal:     wal,
		jobs:    make(map[string]*rjob),
		idem:    make(map[string]string),
		workers: make(map[string]*workerState),
		wake:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	reg := opt.Registry
	r.t = routerTelemetry{
		submitted:   reg.Counter("logan_jobs_submitted_total", "Overlap jobs accepted by POST /jobs."),
		completed:   reg.Counter("logan_jobs_completed_total", "Overlap jobs that finished successfully."),
		failed:      reg.Counter("logan_jobs_failed_total", "Overlap jobs that finished with an error."),
		canceled:    reg.Counter("logan_jobs_canceled_total", "Overlap jobs canceled by DELETE or shutdown."),
		rejected:    reg.Counter("logan_jobs_rejected_total", "Job submissions shed by admission control (HTTP 429)."),
		pafBytes:    reg.Counter("logan_jobs_paf_bytes_total", "Serialized PAF bytes produced by completed jobs."),
		avgDuration: reg.Gauge("logan_jobs_duration_seconds_avg", "EWMA wall time of finished jobs (the Retry-After drain estimate)."),
		requeues:    reg.Counter("logan_cluster_requeues_total", "Jobs requeued after a lease expired or a worker released them."),
		expired:     reg.Counter("logan_cluster_lease_expired_total", "Leases that expired without completion."),
		replayedWAL: reg.Counter("logan_cluster_wal_replayed_total", "Jobs replayed from the write-ahead queue at startup."),
		idemHits:    reg.Counter("logan_jobs_idempotent_replays_total", "Submissions deduplicated onto an existing job by Idempotency-Key."),
		staleLeases: reg.Counter("logan_cluster_stale_lease_total", "Worker reports rejected for carrying a superseded lease token."),
	}
	reg.GaugeFunc("logan_cluster_workers", "Live registered workers.", func() float64 {
		return float64(len(r.Workers()))
	})
	reg.GaugeFunc("logan_jobs_queued", "Jobs waiting for a worker lease.", func() float64 {
		q, _ := r.counts()
		return float64(q)
	})
	reg.GaugeFunc("logan_jobs_running", "Jobs currently leased to a worker.", func() float64 {
		_, run := r.counts()
		return float64(run)
	})
	reg.GaugeFunc("logan_jobs_buffered_bytes", "Spec bytes (FASTA included) held by non-terminal jobs.", func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(r.pendingBytes)
	})
	reg.GaugeFunc("logan_jobs_result_bytes", "Serialized PAF bytes retained by finished jobs.", func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(r.resultBytes)
	})
	if wal != nil {
		reg.GaugeFunc("logan_cluster_queue_depth", "Pending records in the write-ahead queue.", func() float64 {
			return float64(wal.Pending())
		})
	}

	// Replay: every unacked record becomes a queued job again. The spec
	// carries tenant attribution and the idempotency key, so client
	// retries keep deduplicating across the restart.
	for _, rec := range recs {
		spec, err := UnmarshalSpec(rec.Payload)
		if err != nil || spec.ID != rec.ID {
			// A record the WAL's CRC accepted but the codec rejects is a
			// version-skew bug, not recoverable data; drop it durably.
			wal.Ack(rec.ID)
			continue
		}
		spec.Fasta = nil // payload is the only retained copy
		j := &rjob{spec: spec, payload: rec.Payload, state: StateQueued, created: time.Now()}
		r.jobs[spec.ID] = j
		r.order = append(r.order, spec.ID)
		r.pending = append(r.pending, spec.ID)
		r.pendingBytes += int64(len(rec.Payload))
		if spec.IdempotencyKey != "" {
			r.idem[spec.IdempotencyKey] = spec.ID
		}
		r.t.replayedWAL.Inc()
		r.tenantGauge(spec.Tenant)
	}

	r.loopWG.Add(1)
	go r.expiryLoop()
	return r, nil
}

// expiryLoop requeues jobs whose lease lapsed and forgets workers whose
// heartbeats stopped.
func (r *Router) expiryLoop() {
	defer r.loopWG.Done()
	tick := max(r.opt.LeaseTTL/4, 10*time.Millisecond)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-t.C:
			r.expire(time.Now())
		}
	}
}

// expire is one sweep of the expiry loop.
func (r *Router) expire(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, j := range r.jobs {
		if j.state != StateRunning || now.Before(j.leaseExp) {
			continue
		}
		r.t.expired.Inc()
		r.requeueLocked(id, j, fmt.Sprintf("lease expired on worker %q", j.worker))
	}
	for id, w := range r.workers {
		if now.Sub(w.seen) > r.opt.WorkerTTL {
			delete(r.workers, id)
		}
	}
}

// requeueLocked returns a running job to the queue, or fails it once it
// has exhausted its retry budget. Caller holds mu.
func (r *Router) requeueLocked(id string, j *rjob, cause string) {
	j.leaseID = ""
	j.requeues++
	if j.requeues > r.opt.MaxRequeues {
		j.state = StateFailed
		j.err = fmt.Sprintf("gave up after %d requeues: %s", j.requeues-1, cause)
		j.finished = time.Now()
		r.finishAccountingLocked(j)
		r.t.failed.Inc()
		return
	}
	j.state = StateQueued
	j.progress = Progress{}
	r.pending = append(r.pending, id)
	r.t.requeues.Inc()
	r.wakeLocked()
}

// finishAccountingLocked releases a job's pending-byte reservation and
// acks its WAL record: it will never execute again. Caller holds mu.
func (r *Router) finishAccountingLocked(j *rjob) {
	if j.payload != nil {
		r.pendingBytes -= int64(len(j.payload))
		j.payload = nil
	}
	if r.wal != nil {
		r.wal.Ack(j.spec.ID)
	}
}

// tenantGauge registers the logan_tenant_running_jobs{tenant=name}
// gauge; registering it again swaps in an identical function. It takes
// the registry lock, and a scrape holds that lock while the gauge takes
// mu, so callers must not hold mu.
func (r *Router) tenantGauge(name string) {
	r.opt.Registry.GaugeFunc("logan_tenant_running_jobs", "Overlap jobs currently executing, by tenant.", func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		n := 0
		for _, j := range r.jobs {
			if j.state == StateRunning && j.spec.Tenant == name {
				n++
			}
		}
		return float64(n)
	}, telemetry.L("tenant", name))
}

// wakeLocked signals blocked pollers that the queue may have work.
func (r *Router) wakeLocked() {
	close(r.wake)
	r.wake = make(chan struct{})
}

// Submit admits one job: frame the spec, fsync it to the WAL (when
// durable), and queue it — with a WAL, the 202 a client sees implies the
// job survives a router crash. replayed reports an idempotency-key hit
// (the returned status is the original job's). Admission rejections wrap
// ErrStoreFull or ErrBusy.
func (r *Router) Submit(sub Submission) (st JobStatus, replayed bool, err error) {
	if sub.IdempotencyKey != "" {
		r.mu.Lock()
		if id, ok := r.idem[sub.IdempotencyKey]; ok {
			j := r.jobs[id]
			st := r.statusLocked(id, j)
			r.mu.Unlock()
			r.t.idemHits.Inc()
			return st, true, nil
		}
		r.mu.Unlock()
	}

	if int64(len(sub.Fasta)) > r.opt.MaxJobBytes {
		return JobStatus{}, false, fmt.Errorf("cluster: job FASTA exceeds the %d-byte limit", r.opt.MaxJobBytes)
	}
	spec := &Spec{
		ID:             NewID(),
		Tenant:         TenantName(sub.Tenant),
		IdempotencyKey: sub.IdempotencyKey,
		Config:         ConfigFromOverlap(sub.Config),
		Fasta:          sub.Fasta,
	}
	payload, err := spec.Marshal()
	if err != nil {
		return JobStatus{}, false, err
	}
	// The router needs only the header fields; payload is the one copy
	// it keeps, charged to PendingBytes and freed when the job is
	// terminal. Holding the upload buffer too would pin it, uncharged,
	// until the record is evicted.
	spec.Fasta = nil
	r.tenantGauge(spec.Tenant)

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return JobStatus{}, false, errors.New("cluster: router closed")
	}
	// Re-check idempotency under the lock: two concurrent retries with
	// the same key must still collapse onto one job.
	if sub.IdempotencyKey != "" {
		if id, ok := r.idem[sub.IdempotencyKey]; ok {
			r.t.idemHits.Inc()
			return r.statusLocked(id, r.jobs[id]), true, nil
		}
	}
	if r.pendingBytes+int64(len(payload)) > r.opt.PendingBytes {
		r.t.rejected.Inc()
		return JobStatus{}, false, ErrBusy
	}
	if len(r.jobs) >= r.opt.MaxJobs && !r.evictLocked() {
		r.t.rejected.Inc()
		return JobStatus{}, false, ErrStoreFull
	}
	if r.wal != nil {
		if err := r.wal.Append(spec.ID, payload); err != nil {
			return JobStatus{}, false, err
		}
	}
	j := &rjob{spec: spec, payload: payload, state: StateQueued, created: time.Now()}
	r.jobs[spec.ID] = j
	r.order = append(r.order, spec.ID)
	r.pending = append(r.pending, spec.ID)
	r.pendingBytes += int64(len(payload))
	if spec.IdempotencyKey != "" {
		r.idem[spec.IdempotencyKey] = spec.ID
	}
	r.t.submitted.Inc()
	r.wakeLocked()
	return r.statusLocked(spec.ID, j), false, nil
}

// evictLocked drops the oldest terminal job to make room; false means
// every retained job is live. Caller holds mu.
func (r *Router) evictLocked() bool {
	for i, id := range r.order {
		j := r.jobs[id]
		if !TerminalState(j.state) {
			continue
		}
		r.dropLocked(i, id, j)
		return true
	}
	return false
}

// dropLocked removes job at order index i from every map. Caller holds mu.
func (r *Router) dropLocked(i int, id string, j *rjob) {
	delete(r.jobs, id)
	r.order = append(r.order[:i], r.order[i+1:]...)
	if j.spec.IdempotencyKey != "" {
		delete(r.idem, j.spec.IdempotencyKey)
	}
	r.resultBytes -= int64(len(j.paf))
}

// trimResultsLocked evicts oldest terminal jobs (sparing keep) until
// retained PAF bytes fit the budget. Caller holds mu.
func (r *Router) trimResultsLocked(keep string) {
	for i := 0; i < len(r.order) && r.resultBytes > r.opt.ResultBytes; {
		id := r.order[i]
		j := r.jobs[id]
		if id == keep || !TerminalState(j.state) || len(j.paf) == 0 {
			i++
			continue
		}
		r.dropLocked(i, id, j)
	}
}

// statusLocked snapshots a job. Caller holds mu.
func (r *Router) statusLocked(id string, j *rjob) JobStatus {
	if j == nil {
		return JobStatus{ID: id}
	}
	return JobStatus{
		ID: id, State: j.state, Error: j.err, Progress: j.progress,
		Overlaps: j.overlaps, Reads: j.reads, Cells: j.cells,
		PAFBytes: len(j.paf), Worker: j.worker, Requeues: j.requeues,
		Created: j.created, Started: j.started, Finished: j.finished,
	}
}

// Status reports the job's current state.
func (r *Router) Status(id string) (JobStatus, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return r.statusLocked(id, j), true
}

// PAF returns the finished job's serialized result along with its
// status; a job that is not done returns its status and a nil slice.
func (r *Router) PAF(id string) ([]byte, JobStatus, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	if !ok {
		return nil, JobStatus{}, false
	}
	st := r.statusLocked(id, j)
	if j.state != StateDone {
		return nil, st, true
	}
	return j.paf, st, true
}

// Cancel aborts the job if live and forgets it either way (404 from
// here on); a leased run learns at its next extend and aborts. false
// means the ID was unknown.
func (r *Router) Cancel(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	if !ok {
		return false
	}
	for i, oid := range r.order {
		if oid == id {
			r.dropLocked(i, id, j)
			break
		}
	}
	if !TerminalState(j.state) {
		j.state = StateCanceled
		j.canceled = true
		r.finishAccountingLocked(j)
		r.t.canceled.Inc()
	}
	return true
}

// jobDurationAlpha weights the finished-job wall-time EWMA behind
// Retry-After.
const jobDurationAlpha = 0.3

// RetryAfter projects when a shed submission should retry: average job
// duration spread over the queue ahead of it and the live worker count.
func (r *Router) RetryAfter() time.Duration {
	avg := r.t.avgDuration.Value()
	if avg <= 0 {
		return time.Second
	}
	q, run := r.counts()
	workers := max(len(r.Workers()), 1)
	d := time.Duration(avg * float64(q+run+1) / float64(workers) * float64(time.Second))
	return min(max(d, time.Second), time.Minute)
}

// Ready reports whether accepted jobs can make progress: a router with
// no live worker would accept jobs it cannot run.
func (r *Router) Ready() bool { return len(r.Workers()) > 0 }

// counts reports queued/running jobs.
func (r *Router) counts() (queued, running int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, j := range r.jobs {
		switch j.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	return queued, running
}

// Close stops the expiry loop and releases the WAL. Queued and running
// jobs stay in the log for the next router; a memory-only router drops
// them.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.done)
	r.wakeLocked()
	r.mu.Unlock()
	r.loopWG.Wait()
	if r.wal != nil {
		r.wal.Close()
	}
}

// WorkerInfo is one registered worker's public state, for /statz.
type WorkerInfo struct {
	Name      string
	Backend   string
	CellsPS   float64
	LastSeen  time.Time
	Joined    time.Time
	Completed int64
	Failed    int64
	Leases    int
}

// Workers lists live workers (heartbeat within WorkerTTL).
func (r *Router) Workers() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	leases := map[string]int{}
	for _, j := range r.jobs {
		if j.state == StateRunning {
			leases[j.worker]++
		}
	}
	var out []WorkerInfo
	for _, w := range r.workers {
		if now.Sub(w.seen) > r.opt.WorkerTTL {
			continue
		}
		out = append(out, WorkerInfo{
			Name: w.name, Backend: w.backend, CellsPS: w.cellsPS,
			LastSeen: w.seen, Joined: w.joined,
			Completed: w.done, Failed: w.failed, Leases: leases[w.name],
		})
	}
	return out
}

// WorkerSnapshots returns the latest telemetry snapshot each live
// worker pushed, keyed by worker name — the input to the /metrics
// rollup.
func (r *Router) WorkerSnapshots() map[string]*telemetry.Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	out := map[string]*telemetry.Snapshot{}
	for _, w := range r.workers {
		if w.snapshot != nil && now.Sub(w.seen) <= r.opt.WorkerTTL {
			out[w.name] = w.snapshot
		}
	}
	return out
}

// --- worker-facing HTTP API --------------------------------------------

// Wire types of the worker protocol.
type registerRequest struct {
	Name    string  `json:"name"`
	Backend string  `json:"backend"`
	CellsPS float64 `json:"cellsPerSec,omitempty"`
}

type registerResponse struct {
	WorkerID    string `json:"workerId"`
	LeaseTTLMs  int64  `json:"leaseTtlMs"`
	HeartbeatMs int64  `json:"heartbeatMs"`
}

type heartbeatRequest struct {
	WorkerID string  `json:"workerId"`
	CellsPS  float64 `json:"cellsPerSec,omitempty"`
	// Snapshot is the worker's whole telemetry registry; the router
	// re-labels it with worker=<name> in the cluster rollup.
	Snapshot *telemetry.Snapshot `json:"snapshot,omitempty"`
}

type extendRequest struct {
	WorkerID string   `json:"workerId"`
	Lease    string   `json:"lease"`
	Progress Progress `json:"progress"`
}

type extendResponse struct {
	Canceled bool `json:"canceled"`
}

type failRequest struct {
	WorkerID string `json:"workerId"`
	Lease    string `json:"lease"`
	Error    string `json:"error"`
	// Requeue asks for the job back on the queue (graceful worker
	// shutdown) instead of a terminal failure (execution error).
	Requeue bool `json:"requeue"`
}

// Handler returns the worker-facing API, to be mounted under /cluster/.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/register", r.auth(r.handleRegister))
	mux.HandleFunc("POST /cluster/heartbeat", r.auth(r.handleHeartbeat))
	mux.HandleFunc("POST /cluster/poll", r.auth(r.handlePoll))
	mux.HandleFunc("POST /cluster/jobs/{id}/extend", r.auth(r.handleExtend))
	mux.HandleFunc("POST /cluster/jobs/{id}/complete", r.auth(r.handleComplete))
	mux.HandleFunc("POST /cluster/jobs/{id}/fail", r.auth(r.handleFail))
	return mux
}

// auth gates a handler on the shared cluster token, when one is set.
func (r *Router) auth(h http.HandlerFunc) http.HandlerFunc {
	if r.opt.Token == "" {
		return h
	}
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Header.Get("X-Logan-Cluster-Token") != r.opt.Token {
			http.Error(w, "bad cluster token", http.StatusUnauthorized)
			return
		}
		h(w, req)
	}
}

// decodeJSON reads one JSON document into dst, bounded.
func decodeJSON(w http.ResponseWriter, req *http.Request, dst any, limit int64) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, limit)).Decode(dst); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (r *Router) handleRegister(w http.ResponseWriter, req *http.Request) {
	var in registerRequest
	if !decodeJSON(w, req, &in, 1<<20) {
		return
	}
	if !workerNameRE.MatchString(in.Name) {
		http.Error(w, fmt.Sprintf("worker name %q is not label-safe (want %s)", in.Name, workerNameRE), http.StatusBadRequest)
		return
	}
	ws := &workerState{
		id: NewID(), name: in.Name, backend: in.Backend, cellsPS: in.CellsPS,
		seen: time.Now(), joined: time.Now(),
	}
	r.mu.Lock()
	// A re-registering worker (restart, missed heartbeats) replaces its
	// previous incarnation; the old ID's leases expire on their own.
	for id, old := range r.workers {
		if old.name == in.Name {
			delete(r.workers, id)
		}
	}
	r.workers[ws.id] = ws
	r.mu.Unlock()
	writeJSON(w, registerResponse{
		WorkerID:    ws.id,
		LeaseTTLMs:  r.opt.LeaseTTL.Milliseconds(),
		HeartbeatMs: (r.opt.WorkerTTL / 3).Milliseconds(),
	})
}

func (r *Router) handleHeartbeat(w http.ResponseWriter, req *http.Request) {
	var in heartbeatRequest
	if !decodeJSON(w, req, &in, 8<<20) {
		return
	}
	r.mu.Lock()
	ws, ok := r.workers[in.WorkerID]
	if ok {
		ws.seen = time.Now()
		if in.CellsPS > 0 {
			ws.cellsPS = in.CellsPS
		}
		if in.Snapshot != nil {
			ws.snapshot = in.Snapshot
		}
	}
	r.mu.Unlock()
	if !ok {
		// Tell the worker to re-register (router restarted, or the
		// worker was declared dead); 410 distinguishes "you are unknown"
		// from a malformed request.
		http.Error(w, "unknown worker", http.StatusGone)
		return
	}
	writeJSON(w, struct{}{})
}

// pollWaitLimit caps a long-poll request.
const pollWaitLimit = 30 * time.Second

func (r *Router) handlePoll(w http.ResponseWriter, req *http.Request) {
	var in struct {
		WorkerID string `json:"workerId"`
		WaitMs   int64  `json:"waitMs"`
	}
	if !decodeJSON(w, req, &in, 1<<20) {
		return
	}
	wait := min(time.Duration(in.WaitMs)*time.Millisecond, pollWaitLimit)
	deadline := time.Now().Add(wait)
	for {
		r.mu.Lock()
		ws, known := r.workers[in.WorkerID]
		if !known {
			r.mu.Unlock()
			http.Error(w, "unknown worker", http.StatusGone)
			return
		}
		ws.seen = time.Now()
		if j, id, lease := r.leaseLocked(ws.name); j != nil {
			payload := j.payload
			ttl := r.opt.LeaseTTL
			r.mu.Unlock()
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("X-Logan-Job-Id", id)
			w.Header().Set("X-Logan-Lease", lease)
			w.Header().Set("X-Logan-Lease-Ttl-Ms", strconv.FormatInt(ttl.Milliseconds(), 10))
			w.Write(payload)
			return
		}
		wake := r.wake
		closed := r.closed
		r.mu.Unlock()
		remain := time.Until(deadline)
		if closed || remain <= 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		timer := time.NewTimer(remain)
		select {
		case <-wake:
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return
		}
		timer.Stop()
	}
}

// leaseLocked pops the next queued job and leases it to the named
// worker. Caller holds mu.
func (r *Router) leaseLocked(workerName string) (*rjob, string, string) {
	for len(r.pending) > 0 {
		id := r.pending[0]
		r.pending = r.pending[1:]
		j, ok := r.jobs[id]
		if !ok || j.state != StateQueued {
			continue // canceled or superseded while queued
		}
		j.state = StateRunning
		j.worker = workerName
		j.leaseID = NewID()
		j.leaseExp = time.Now().Add(r.opt.LeaseTTL)
		if j.started.IsZero() {
			j.started = time.Now()
		}
		return j, id, j.leaseID
	}
	return nil, "", ""
}

// leaseCheckLocked validates that (id, lease) names the current lease.
// It returns the job when valid. Caller holds mu.
func (r *Router) leaseCheckLocked(id, lease string) (*rjob, bool) {
	j, ok := r.jobs[id]
	if !ok || j.leaseID == "" || j.leaseID != lease {
		return j, false
	}
	return j, true
}

func (r *Router) handleExtend(w http.ResponseWriter, req *http.Request) {
	var in extendRequest
	if !decodeJSON(w, req, &in, 1<<20) {
		return
	}
	id := req.PathValue("id")
	r.mu.Lock()
	j, ok := r.leaseCheckLocked(id, in.Lease)
	if !ok {
		r.mu.Unlock()
		r.t.staleLeases.Inc()
		http.Error(w, "stale lease", http.StatusConflict)
		return
	}
	if ws := r.workers[in.WorkerID]; ws != nil {
		ws.seen = time.Now()
	}
	if j.canceled || j.state != StateRunning {
		r.mu.Unlock()
		writeJSON(w, extendResponse{Canceled: true})
		return
	}
	j.leaseExp = time.Now().Add(r.opt.LeaseTTL)
	j.progress = in.Progress
	r.mu.Unlock()
	writeJSON(w, extendResponse{})
}

// handleComplete publishes a finished job: the PAF body, the summary
// headers, and the final progress (X-Logan-Progress, JSON), which the
// extend cadence may never have carried for a short job.
func (r *Router) handleComplete(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	lease := req.Header.Get("X-Logan-Lease")
	paf, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.opt.ResultBytes))
	var tooBig *http.MaxBytesError
	if err != nil && !errors.As(err, &tooBig) {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	var prog Progress
	if json.Unmarshal([]byte(req.Header.Get("X-Logan-Progress")), &prog) != nil {
		prog = Progress{} // absent or malformed: keep the last extend's
	}
	overlaps, _ := strconv.Atoi(req.Header.Get("X-Logan-Overlaps"))
	reads, _ := strconv.Atoi(req.Header.Get("X-Logan-Reads"))
	cells, _ := strconv.ParseInt(req.Header.Get("X-Logan-Cells"), 10, 64)

	r.mu.Lock()
	j, ok := r.leaseCheckLocked(id, lease)
	if !ok {
		done := j != nil && j.state == StateDone
		r.mu.Unlock()
		if done {
			// The job finished under another lease (or this is a network
			// retry of an accepted completion): idempotent OK — the work
			// must not be reported as failed to a worker that did it.
			writeJSON(w, struct{}{})
			return
		}
		r.t.staleLeases.Inc()
		http.Error(w, "stale lease", http.StatusConflict)
		return
	}
	j.leaseID = ""
	j.finished = time.Now()
	if prog.Stage != "" {
		j.progress = prog
	}
	ws := r.workers[req.Header.Get("X-Logan-Worker-Id")]
	if ws != nil {
		ws.seen = time.Now()
	}
	if tooBig != nil {
		// Terminal, not a retry: every re-execution would produce the
		// same oversized result.
		j.state = StateFailed
		j.err = fmt.Sprintf("result exceeds -job-result-bytes (%d bytes)", r.opt.ResultBytes)
		if ws != nil {
			ws.failed++
		}
		r.finishAccountingLocked(j)
		r.t.failed.Inc()
		msg := j.err
		r.mu.Unlock()
		http.Error(w, msg, http.StatusRequestEntityTooLarge)
		return
	}
	j.state = StateDone
	j.paf = paf
	j.overlaps = overlaps
	j.reads = reads
	j.cells = cells
	if !j.started.IsZero() {
		r.t.avgDuration.ObserveEWMA(j.finished.Sub(j.started).Seconds(), jobDurationAlpha)
	}
	if ws != nil {
		ws.done++
	}
	r.resultBytes += int64(len(paf))
	r.finishAccountingLocked(j)
	r.t.completed.Inc()
	r.t.pafBytes.Add(float64(len(paf)))
	r.trimResultsLocked(id)
	r.mu.Unlock()
	writeJSON(w, struct{}{})
}

func (r *Router) handleFail(w http.ResponseWriter, req *http.Request) {
	var in failRequest
	if !decodeJSON(w, req, &in, 1<<20) {
		return
	}
	id := req.PathValue("id")
	r.mu.Lock()
	j, ok := r.leaseCheckLocked(id, in.Lease)
	if !ok {
		r.mu.Unlock()
		r.t.staleLeases.Inc()
		http.Error(w, "stale lease", http.StatusConflict)
		return
	}
	if ws := r.workers[in.WorkerID]; ws != nil {
		ws.seen = time.Now()
		ws.failed++
	}
	if in.Requeue {
		r.requeueLocked(id, j, fmt.Sprintf("released by worker %q: %s", j.worker, in.Error))
	} else {
		j.state = StateFailed
		j.leaseID = ""
		j.err = in.Error
		j.finished = time.Now()
		r.finishAccountingLocked(j)
		r.t.failed.Inc()
	}
	r.mu.Unlock()
	writeJSON(w, struct{}{})
}

// writeJSON renders v with a 200.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
