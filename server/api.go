package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro"
	"repro/server/apiv1"
)

// The request envelopes and error schema of the /v1 API live in the
// versioned wire-contract package; the server aliases them so existing
// callers keep compiling against server.QueryRequest and friends. See
// package apiv1 for the field semantics and the compatibility contract.
type (
	QueryRequest  = apiv1.QueryRequest
	BatchRequest  = apiv1.BatchRequest
	MutateOp      = apiv1.MutateOp
	MutateRequest = apiv1.MutateRequest
	AttachRequest = apiv1.AttachRequest
	ErrorResponse = apiv1.ErrorResponse
)

// QueryResponse is the body of a successful POST /v1/query, and one
// element of a batch response.
type QueryResponse struct {
	// KStar is the best rank the focal record can achieve.
	KStar int `json:"k_star"`
	// Dominators is the number of records outranking the focal record
	// under every preference.
	Dominators int64 `json:"dominators"`
	// MinOrder is the minimum arrangement-cell order (KStar-Dominators-1).
	MinOrder int `json:"min_order"`
	// Cached reports that the answer came from the engine's result cache.
	Cached bool `json:"cached"`
	// TotalRegions is the full region count, before MaxRegions truncation.
	TotalRegions int `json:"total_regions"`
	// Regions lists the qualifying regions, best rank first.
	Regions []RegionJSON `json:"regions"`
	// Stats reports the cost of the (possibly cached) computation.
	Stats QueryStats `json:"stats"`
}

// RegionJSON is the wire form of one repro.Region.
type RegionJSON struct {
	// Rank of the focal record anywhere in this region.
	Rank int `json:"rank"`
	// Order is the region's arrangement-cell order (Rank-Dominators-1).
	Order int `json:"order"`
	// Witness is a point inside the region, in reduced (d-1)-dim
	// preference coordinates.
	Witness []float64 `json:"witness"`
	// QueryVector is the witness lifted to a full d-dim preference.
	QueryVector []float64 `json:"query_vector"`
	// BoxLo and BoxHi bound the region in reduced coordinates.
	BoxLo []float64 `json:"box_lo"`
	BoxHi []float64 `json:"box_hi"`
	// OutrankIDs lists the records outranking the focal here (present only
	// when the request set outrank_ids).
	OutrankIDs []int64 `json:"outrank_ids,omitempty"`
}

// QueryStats is the wire form of repro.Stats. For a cached answer these
// are the counters of the original computation.
type QueryStats struct {
	// CPUMicros is the computation's CPU time in microseconds.
	CPUMicros int64 `json:"cpu_us"`
	// IOPages is the number of simulated page accesses.
	IOPages int64 `json:"io_pages"`
	// RecordsAccessed is n (BA/FCA) or n_a (AA) in the paper's accounting.
	RecordsAccessed int64 `json:"records_accessed"`
	// Algorithm names the strategy that computed the answer.
	Algorithm string `json:"algorithm"`
}

// BatchResponse is the body of a successful POST /v1/batch; Results align
// with the requested focal order.
type BatchResponse struct {
	Results []QueryResponse `json:"results"`
}

// StatsResponse is the body of GET /v1/stats. Datasets carries one entry
// per served dataset; Dataset and Engine mirror the entry unqualified
// requests resolve to (the sole dataset, or "default") for single-dataset
// deployments and older clients, and are zero when no such dataset exists.
type StatsResponse struct {
	Dataset  DatasetStats            `json:"dataset"`
	Engine   repro.EngineStats       `json:"engine"`
	Datasets map[string]DatasetEntry `json:"datasets"`
	Server   ServerStats             `json:"server"`
}

// DatasetEntry is one dataset's slice of GET /v1/stats.
type DatasetEntry struct {
	Dataset DatasetStats      `json:"dataset"`
	Engine  repro.EngineStats `json:"engine"`
	// Version is the dataset's mutation version (1 at attach, +1 per
	// successful mutate).
	Version uint64 `json:"version"`
	// Latency reports the dataset's query-latency quantiles over the most
	// recent successful /v1/query requests; absent until a query completes.
	Latency *LatencyStats `json:"latency,omitempty"`
	// Admission reports the dataset's admission-control counters; absent
	// when the server runs without WithAdmission or before the dataset's
	// first gated request.
	Admission *AdmissionStats `json:"admission,omitempty"`
	// WAL reports the dataset's write-ahead-log extent; absent when the
	// server runs without WithMutationLog or the dataset has no log yet.
	WAL *WALStats `json:"wal,omitempty"`
	// Storage reports how the dataset's records and index are held: heap
	// (decoded into process memory) or mmap (served zero-copy from a
	// read-only mapping of a v2 snapshot), with the footprint of each.
	Storage repro.StorageStats `json:"storage"`
}

// WALStats is a dataset's write-ahead-log slice of GET /v1/stats.
type WALStats struct {
	// Records and Bytes are the log's current record count and file size.
	Records int64 `json:"wal_records"`
	Bytes   int64 `json:"wal_bytes"`
	// LastCompaction is when a snapshot last superseded log records;
	// absent before the first compaction of this process.
	LastCompaction *time.Time `json:"last_compaction,omitempty"`
}

// DatasetStats describes one served dataset.
type DatasetStats struct {
	// Records and Dim are the dataset's cardinality and dimensionality.
	Records int `json:"records"`
	Dim     int `json:"dim"`
	// Fingerprint is the dataset content digest that keys the result cache.
	Fingerprint string `json:"fingerprint"`
}

// DatasetInfo is one row of GET /v1/datasets.
type DatasetInfo struct {
	// Name addresses the dataset in query, batch and admin requests.
	Name string `json:"name"`
	// Records, Dim and Fingerprint describe the dataset content.
	Records     int    `json:"records"`
	Dim         int    `json:"dim"`
	Fingerprint string `json:"fingerprint"`
	// Version is the dataset's mutation version (1 at attach, +1 per
	// successful mutate).
	Version uint64 `json:"version"`
}

// DatasetsResponse is the body of GET /v1/datasets, sorted by name.
type DatasetsResponse struct {
	Datasets []DatasetInfo `json:"datasets"`
}

// MutateResponse is the body of a successful mutate: the dataset's new
// version counter and content fingerprint (the engine's result cache keys
// on the fingerprint, so the version change also invalidates every cached
// answer), plus the post-mutation record count and the batch composition.
type MutateResponse struct {
	Dataset     string `json:"dataset"`
	Version     uint64 `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Records     int    `json:"records"`
	Inserted    int    `json:"inserted"`
	Deleted     int    `json:"deleted"`
}

// ServerStats reports the HTTP-layer counters.
type ServerStats struct {
	// Requests counts every request routed to a handler since start.
	Requests int64 `json:"requests"`
	// Errors counts requests answered with a 4xx or 5xx status.
	Errors int64 `json:"errors"`
	// UptimeSeconds is the time since the server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Admitted, ShedQueueFull and ShedDeadline are the admission-control
	// totals (see WithAdmission), cumulative across dataset detach and
	// version swaps; all zero with admission disabled. ShedQuota counts
	// requests rejected by the per-client rate quota (see WithQuota).
	Admitted      int64 `json:"admitted"`
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedDeadline  int64 `json:"shed_deadline"`
	ShedQuota     int64 `json:"shed_quota"`
	// AdmissionTiers breaks the admission totals down by scheduling tier,
	// keyed by tier name; absent with admission disabled.
	AdmissionTiers map[string]TierTotals `json:"admission_tiers,omitempty"`
}

// TierTotals is one tier's slice of the server-level admission totals.
type TierTotals struct {
	Admitted      int64 `json:"admitted"`
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedDeadline  int64 `json:"shed_deadline"`
}

// handleQuery serves POST /v1/query. The reported latency is measured
// from handler entry, so it includes any admission-queue wait. The
// request's priority tier steers admission; the per-client quota
// (WithQuota) is checked first, so a rate-limited client never occupies
// queue state.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	began := time.Now()
	var req QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	opts, err := req.Options()
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if se := s.quotaCheck(clientID(r, req.Client)); se != nil {
		s.fail(w, se.status, se)
		return
	}
	eng, name, release, err := s.reg.resolve(req.Dataset)
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	defer release()
	ctx, cancel := s.requestContext(r)
	defer cancel()
	admitRelease, err := s.admit(ctx, name, req.Priority.Tier())
	if err != nil {
		s.fail(w, queryStatus(err), err)
		return
	}
	var res *repro.Result
	if req.Focal != nil {
		res, err = eng.QueryOpts(ctx, *req.Focal, opts)
	} else {
		res, err = eng.QueryPointOpts(ctx, req.Point, opts)
	}
	admitRelease()
	if err != nil {
		s.fail(w, queryStatus(err), err)
		return
	}
	s.recordLatency(name, time.Since(began))
	s.reply(w, http.StatusOK, convertResult(res, req.MaxRegions))
}

// handleBatch serves POST /v1/batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Focals) > s.maxBatch {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("batch of %d exceeds the limit of %d", len(req.Focals), s.maxBatch))
		return
	}
	opts, err := req.Options()
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if se := s.quotaCheck(clientID(r, req.Client)); se != nil {
		s.fail(w, se.status, se)
		return
	}
	eng, name, release, err := s.reg.resolve(req.Dataset)
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	defer release()
	ctx, cancel := s.requestContext(r)
	defer cancel()
	// A batch holds one slot, like a query: it already executes on the
	// engine's own bounded worker pool.
	admitRelease, err := s.admit(ctx, name, req.Priority.Tier())
	if err != nil {
		s.fail(w, queryStatus(err), err)
		return
	}
	results, err := eng.QueryBatchOpts(ctx, req.Focals, opts)
	admitRelease()
	if err != nil {
		s.fail(w, queryStatus(err), err)
		return
	}
	resp := BatchResponse{Results: make([]QueryResponse, len(results))}
	for i, res := range results {
		resp.Results[i] = convertResult(res, req.MaxRegions)
	}
	s.reply(w, http.StatusOK, resp)
}

// handleStats serves GET /v1/stats: one entry per dataset (cache counters
// are per dataset, since each engine has its own cache), plus the
// single-dataset mirror fields and the HTTP-layer counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Datasets: make(map[string]DatasetEntry),
		Server: ServerStats{
			Requests:      s.requests.Load(),
			Errors:        s.errors.Load(),
			UptimeSeconds: time.Since(s.start).Seconds(),
			Admitted:      s.admitted.Load(),
			ShedQueueFull: s.shedQueueFull.Load(),
			ShedDeadline:  s.shedDeadline.Load(),
			ShedQuota:     s.shedQuota.Load(),
		},
	}
	if s.AdmissionEnabled() {
		tiers := make(map[string]TierTotals, numTiers)
		for t := 0; t < numTiers; t++ {
			tiers[apiv1.TierName(t)] = TierTotals{
				Admitted:      s.admitted[t].Load(),
				ShedQueueFull: s.shedQueueFull[t].Load(),
				ShedDeadline:  s.shedDeadline[t].Load(),
			}
		}
		resp.Server.AdmissionTiers = tiers
	}
	s.reg.forEach(func(name string, eng *repro.Engine, version uint64, stats repro.EngineStats) {
		ds := eng.Dataset()
		resp.Datasets[name] = DatasetEntry{
			Dataset: DatasetStats{
				Records:     ds.Len(),
				Dim:         ds.Dim(),
				Fingerprint: ds.Fingerprint(),
			},
			// Cumulative across versions: mutations swap engines in, but
			// the counters must not reset with each swap.
			Engine:    stats,
			Version:   version,
			Latency:   s.latencyStats(name),
			Admission: s.admissionStats(name),
			WAL:       s.walStats(name),
			Storage:   ds.Storage(),
		}
	})
	// The legacy mirror fields reuse the per-dataset entry captured above,
	// so one response is always self-consistent (a second Stats() call, or
	// a dataset attached between the snapshot and the resolve, would let
	// the mirror disagree with the map).
	if _, name, release, err := s.reg.resolve(""); err == nil {
		release()
		if entry, ok := resp.Datasets[name]; ok {
			resp.Dataset = entry.Dataset
			resp.Engine = entry.Engine
		}
	}
	s.reply(w, http.StatusOK, resp)
}

// handleListDatasets serves GET /v1/datasets.
func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	resp := DatasetsResponse{Datasets: []DatasetInfo{}}
	s.reg.forEach(func(name string, eng *repro.Engine, version uint64, _ repro.EngineStats) {
		ds := eng.Dataset()
		resp.Datasets = append(resp.Datasets, DatasetInfo{
			Name:        name,
			Records:     ds.Len(),
			Dim:         ds.Dim(),
			Fingerprint: ds.Fingerprint(),
			Version:     version,
		})
	})
	s.reply(w, http.StatusOK, resp)
}

// handleAttachDataset serves POST /v1/datasets: load a snapshot through
// the configured loader and register it. 501 without a loader, 409 on a
// name collision, 422 when the snapshot cannot be loaded.
func (s *Server) handleAttachDataset(w http.ResponseWriter, r *http.Request) {
	if s.loader == nil {
		s.fail(w, http.StatusNotImplemented, fmt.Errorf("snapshot attach is not enabled on this server"))
		return
	}
	var req AttachRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !ValidDatasetName(req.Name) {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("invalid dataset name %q", req.Name))
		return
	}
	eng, err := s.loader(req.Path)
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, fmt.Errorf("loading snapshot %q: %w", req.Path, err))
		return
	}
	if err := s.reg.Add(req.Name, eng); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrDatasetExists) {
			status = http.StatusConflict
		}
		s.fail(w, status, err)
		return
	}
	ds := eng.Dataset()
	s.logf("server: attached dataset %q (%d records, fingerprint %s)", req.Name, ds.Len(), ds.Fingerprint())
	s.reply(w, http.StatusCreated, DatasetInfo{
		Name:        req.Name,
		Records:     ds.Len(),
		Dim:         ds.Dim(),
		Fingerprint: ds.Fingerprint(),
		Version:     1,
	})
}

// handleMutateDataset serves POST /v1/datasets/{name}/mutate: apply a
// batch of point inserts/deletes to the named dataset, atomically swapping
// in the successor engine version while queries pinned to the previous
// version drain against it. Like attach and detach it is gated on
// WithSnapshotLoader — rewriting the served catalog is at least as
// destructive as detaching it, so a plain server.New deployment exposes
// no mutating endpoint at all (the daemon always enables all three).
// 404 for unknown datasets, 400 for an invalid batch (the dataset is
// then unchanged).
func (s *Server) handleMutateDataset(w http.ResponseWriter, r *http.Request) {
	if s.loader == nil {
		s.fail(w, http.StatusNotImplemented, fmt.Errorf("dataset administration is not enabled on this server"))
		return
	}
	name := r.PathValue("name")
	var req MutateRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Ops) > s.maxOps {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("batch of %d ops exceeds the limit of %d", len(req.Ops), s.maxOps))
		return
	}
	ops, inserted, deleted := req.EngineOps()
	ctx, cancel := s.requestContext(r)
	defer cancel()
	eng, version, err := s.reg.Mutate(ctx, name, func(cur *repro.Engine, curVersion uint64) (*repro.Engine, error) {
		next, err := cur.Apply(ctx, ops)
		if err != nil {
			return nil, err
		}
		// Ack-after-append: the batch reaches the write-ahead log before
		// the version swap that acknowledges it. If the append fails the
		// mutation fails and the dataset is unchanged — the client can
		// retry; nothing was acknowledged, nothing is lost.
		if s.mutLog != nil {
			rec := MutationRecord{
				BaseVersion:     curVersion,
				BaseFingerprint: cur.Dataset().Fingerprint(),
				NewFingerprint:  next.Dataset().Fingerprint(),
				Ops:             ops,
			}
			if err := s.mutLog.Append(name, rec); err != nil {
				return nil, fmt.Errorf("mutation log append: %w", err)
			}
		}
		return next, nil
	})
	if err != nil {
		switch {
		case errors.Is(err, ErrDatasetNotFound):
			s.fail(w, http.StatusNotFound, err)
		default:
			s.fail(w, queryStatus(err), err)
		}
		return
	}
	ds := eng.Dataset()
	s.logf("server: mutated dataset %q to version %d (%+d/-%d records, now %d, fingerprint %s)",
		name, version, inserted, deleted, ds.Len(), ds.Fingerprint())
	if hook := s.mutateHook; hook != nil {
		s.spawnHook(func() { hook(name, eng, version) })
	}
	s.reply(w, http.StatusOK, MutateResponse{
		Dataset:     name,
		Version:     version,
		Fingerprint: ds.Fingerprint(),
		Records:     ds.Len(),
		Inserted:    inserted,
		Deleted:     deleted,
	})
}

// handleDetachDataset serves DELETE /v1/datasets/{name}: the name stops
// resolving immediately and the handler waits (bounded by the request
// timeout) for the dataset's in-flight queries to drain. Like attach, it
// is gated on WithSnapshotLoader — a server without the admin loader
// exposes no mutating endpoint at all (server.New alone must not let a
// client detach the sole dataset and brick the service).
func (s *Server) handleDetachDataset(w http.ResponseWriter, r *http.Request) {
	if s.loader == nil {
		s.fail(w, http.StatusNotImplemented, fmt.Errorf("dataset administration is not enabled on this server"))
		return
	}
	name := r.PathValue("name")
	ctx, cancel := s.requestContext(r)
	defer cancel()
	if err := s.reg.Remove(ctx, name); err != nil {
		switch {
		case errors.Is(err, ErrDatasetNotFound):
			s.fail(w, http.StatusNotFound, err)
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			// Detached, but stragglers outlived the drain window.
			s.fail(w, http.StatusGatewayTimeout, err)
		default:
			s.fail(w, http.StatusInternalServerError, err)
		}
		return
	}
	s.dropLatency(name)
	s.dropGate(name)
	s.logf("server: detached dataset %q", name)
	s.reply(w, http.StatusOK, map[string]string{"status": "removed", "dataset": name})
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.reply(w, http.StatusOK, map[string]string{"status": "ok"})
}

// requestContext derives the handler context, applying the per-request
// timeout when one is configured.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout > 0 {
		return context.WithTimeout(r.Context(), s.timeout)
	}
	return r.Context(), func() {}
}

// decode parses and validates the JSON request body into dst through the
// versioned envelope's shared path (apiv1.Decode), answering 400 itself
// on malformed or invalid input and reporting whether the handler should
// proceed. The server contributes only the body-size bound; everything
// about the payload itself is the envelope's.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst apiv1.Request) bool {
	if err := apiv1.Decode(http.MaxBytesReader(w, r.Body, s.maxBody), dst); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// reply writes a JSON response.
func (s *Server) reply(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		s.logf("server: encoding response: %v", err)
	}
}

// fail writes a JSON error response and counts it. A shed rejection
// (admission control) additionally advertises its Retry-After so clients
// know when the backlog they were rejected behind should have drained.
func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.errors.Add(1)
	var shed *shedError
	if errors.As(err, &shed) {
		w.Header().Set("Retry-After", strconv.Itoa(shed.retryAfter))
	}
	s.logf("server: %d: %v", status, err)
	s.reply(w, status, ErrorResponse{Error: err.Error()})
}

// queryStatus maps a query error to an HTTP status: request-caused
// failures (repro.ErrBadQuery) are 400, admission sheds carry their own
// status (429 queue-full / 503 deadline), deadline overruns 504, client
// disconnects 408, and anything else is a genuine internal failure, 500 —
// so 5xx-based alerting sees engine bugs rather than blaming the client.
func queryStatus(err error) int {
	var shed *shedError
	switch {
	case errors.Is(err, repro.ErrBadQuery):
		return http.StatusBadRequest
	case errors.As(err, &shed):
		return shed.status
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout
	default:
		return http.StatusInternalServerError
	}
}

// convertResult maps a repro.Result to its wire form, truncating regions
// to maxRegions when positive.
func convertResult(res *repro.Result, maxRegions int) QueryResponse {
	out := QueryResponse{
		KStar:        res.KStar,
		Dominators:   res.Dominators,
		MinOrder:     res.MinOrder,
		Cached:       res.Cached,
		TotalRegions: len(res.Regions),
		Stats: QueryStats{
			CPUMicros:       res.Stats.CPUTime.Microseconds(),
			IOPages:         res.Stats.IO,
			RecordsAccessed: res.Stats.IncomparableAccessed,
			Algorithm:       res.Stats.Algorithm.String(),
		},
	}
	n := len(res.Regions)
	if maxRegions > 0 && maxRegions < n {
		n = maxRegions
	}
	out.Regions = make([]RegionJSON, n)
	for i := 0; i < n; i++ {
		reg := &res.Regions[i]
		out.Regions[i] = RegionJSON{
			Rank:        reg.Rank,
			Order:       reg.Order,
			Witness:     reg.Witness,
			QueryVector: reg.QueryVector,
			BoxLo:       reg.BoxLo,
			BoxHi:       reg.BoxHi,
			OutrankIDs:  reg.OutrankIDs,
		}
	}
	return out
}
