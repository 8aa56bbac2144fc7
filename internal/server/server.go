// Package server is the one HTTP serving layer of the JSON API in
// internal/httpapi. It answers either a local reachac.Network (New) or any
// other Service — in practice a *shard.Router over N shards (NewRouter) —
// with the same routes, validation, error codes and admission control.
//
// Reads (check, check-batch, audience, reach, audit) pass a concurrency
// gate that sheds load with 503 + Retry-After instead of queueing
// unboundedly. On a local network they are answered straight off the
// published engine snapshot through the facade's View API, with no
// per-request locking, and mutations (users, relationships, share, revoke)
// are coalesced: concurrent requests fold into shared Batch commit groups
// so one WAL fsync covers many writers, behind a bounded, deadline-aware
// admission queue. Policies, the shard-internal endpoints, WAL shipping
// and the follower staleness header exist only on a local network.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reachac"
	"reachac/client"
	"reachac/internal/httpapi"
)

// Service is the name-keyed API a Server exposes. Both a local network and
// *shard.Router implement it; numeric IDs in the answers are
// backend-local. Audience and ReachAudience report in partial the indexes
// of shards whose contribution is missing (always nil on a local network).
type Service interface {
	AddUser(ctx context.Context, name string, attrs map[string]any) (uint32, error)
	UserID(ctx context.Context, name string) (uint32, error)
	Relate(ctx context.Context, from, to, relType string, mutual bool) error
	Unrelate(ctx context.Context, from, to, relType string) error
	Share(ctx context.Context, resource, owner string, paths []string) (string, error)
	Revoke(ctx context.Context, resource, rule string) (bool, error)
	Check(ctx context.Context, resource, requester string) (httpapi.Decision, error)
	CheckBatch(ctx context.Context, resource string, requesters []string) ([]httpapi.Decision, error)
	Audience(ctx context.Context, resource string) (users []string, partial []int, err error)
	Reach(ctx context.Context, owner, requester, expr string) (bool, error)
	ReachAudience(ctx context.Context, owner, expr string) (users []string, partial []int, err error)
	Audit(n int) []httpapi.Decision
	Stats(ctx context.Context) httpapi.StatsResponse
	Health(ctx context.Context) httpapi.HealthResponse
	Close() error
}

// Config tunes the serving layer; the zero value selects the defaults.
type Config struct {
	// MaxConcurrentChecks bounds in-flight read requests (default
	// 4×GOMAXPROCS).
	MaxConcurrentChecks int
	// MaxQueuedMutations bounds the mutation admission queue (default 1024);
	// a full queue rejects with 503 + Retry-After.
	MaxQueuedMutations int
	// CoalesceBatch caps how many mutation requests one commit group may
	// carry (default 128).
	CoalesceBatch int
	// CoalesceWait is how long the committer lingers for more mutations
	// after gathering the first (default 0: coalesce only what is already
	// queued, adding no latency).
	CoalesceWait time.Duration
}

const (
	// admitWait is how long a read waits for a check slot before rejection.
	admitWait = 100 * time.Millisecond
	// retryAfterSecs is the Retry-After hint attached to 503 responses.
	retryAfterSecs = "1"
)

func (c Config) withDefaults() Config {
	if c.MaxConcurrentChecks <= 0 {
		c.MaxConcurrentChecks = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueuedMutations <= 0 {
		c.MaxQueuedMutations = 1024
	}
	if c.CoalesceBatch <= 0 {
		c.CoalesceBatch = 128
	}
	return c
}

// Server exposes one Service over HTTP. Create with New or NewRouter,
// mount as an http.Handler, and call Shutdown to drain and release it.
type Server struct {
	svc  Service
	net  *reachac.Network // nil when serving a router
	co   *coalescer       // nil when serving a router
	mux  *http.ServeMux
	gate *gate

	checkRejected atomic.Uint64
	closed        chan struct{} // closed by Shutdown after the drain
	shutdownOnce  sync.Once
	shutdownErr   error
}

// New wraps n in a serving layer. The server takes over the network's
// lifecycle: Shutdown drains pending mutations, takes a final checkpoint
// (skipped when the log is already clean) and closes the network.
func New(n *reachac.Network, cfg Config) *Server {
	cfg = cfg.withDefaults()
	co := newCoalescer(n, cfg.MaxQueuedMutations, cfg.CoalesceBatch, cfg.CoalesceWait)
	return newServer(&node{net: n, co: co}, n, co, cfg)
}

// NewRouter serves svc — a *shard.Router — over the same API. Only
// MaxConcurrentChecks applies; Shutdown closes svc.
func NewRouter(svc Service, cfg Config) *Server {
	return newServer(svc, nil, nil, cfg.withDefaults())
}

func newServer(svc Service, n *reachac.Network, co *coalescer, cfg Config) *Server {
	s := &Server{
		svc:    svc,
		net:    n,
		co:     co,
		mux:    http.NewServeMux(),
		gate:   newGate(cfg.MaxConcurrentChecks, admitWait),
		closed: make(chan struct{}),
	}
	s.routes()
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET "+httpapi.PathHealth, s.handleHealth)
	s.mux.HandleFunc("GET "+httpapi.PathStats, s.handleStats)
	s.mux.HandleFunc("POST "+httpapi.PathUsers, s.handleAddUser)
	s.mux.HandleFunc("GET "+httpapi.PathUsers+"/{name}", s.handleGetUser)
	s.mux.HandleFunc("POST "+httpapi.PathRelationships, s.handleRelate)
	s.mux.HandleFunc("DELETE "+httpapi.PathRelationships, s.handleUnrelate)
	s.mux.HandleFunc("POST "+httpapi.PathShare, s.handleShare)
	s.mux.HandleFunc("POST "+httpapi.PathRevoke, s.handleRevoke)
	s.mux.HandleFunc("GET "+httpapi.PathCheck, s.handleCheck)
	s.mux.HandleFunc("POST "+httpapi.PathCheckBatch, s.handleCheckBatch)
	s.mux.HandleFunc("GET "+httpapi.PathAudience, s.handleAudience)
	s.mux.HandleFunc("GET "+httpapi.PathReach, s.handleReach)
	s.mux.HandleFunc("GET "+httpapi.PathReachAudience, s.handleReachAudience)
	s.mux.HandleFunc("GET "+httpapi.PathAudit, s.handleAudit)
	if s.net == nil {
		return
	}
	// Local-network only: the policy serialization and the shard-internal
	// endpoints embed network-local state.
	s.mux.HandleFunc("GET "+httpapi.PathPolicies, s.handleGetPolicies)
	s.mux.HandleFunc("PUT "+httpapi.PathPolicies, s.handlePutPolicies)
	s.mux.HandleFunc("POST "+httpapi.PathShardExpand, s.handleShardExpand)
	s.mux.HandleFunc("GET "+httpapi.PathShardPolicies, s.handleShardPolicies)
	if src := s.net.ReplicaSource(); src != nil {
		// A durable leader is followable: mount the WAL-shipping endpoints.
		src.Register(s.mux)
	}
}

// ServeHTTP implements http.Handler. A follower stamps every response with
// its staleness bound, so clients can judge the freshness of what they read.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.net != nil && s.net.Follower() {
		rs := s.net.ReplicaStatus()
		w.Header().Set(httpapi.HeaderStaleness,
			strconv.FormatInt(time.Since(rs.LastContact).Milliseconds(), 10))
	}
	s.mux.ServeHTTP(w, r)
}

// Shutdown gracefully stops the serving layer. On a local network, intake
// closes, every queued mutation commits (bounded by ctx), a final
// checkpoint compacts the log unless nothing changed since the last one,
// and the network closes; a router closes its backends. The HTTP listener
// must already be stopped (http.Server.Shutdown) so no new requests race
// the drain. Idempotent; later calls return the first result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		var err error
		if s.co != nil {
			err = s.co.shutdown(ctx)
			if s.net.Durable() {
				if cerr := s.net.Checkpoint(); cerr != nil && err == nil {
					err = cerr
				}
			}
		}
		if cerr := s.svc.Close(); cerr != nil && err == nil {
			err = cerr
		}
		s.shutdownErr = err
		close(s.closed)
	})
	<-s.closed
	return s.shutdownErr
}

// --- response plumbing ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// httpError maps a Service or admission error to status + wire code. A
// remote shard's *client.Error passes through verbatim, so a router is
// transparent to errors a shard already classified. 503s carry a
// Retry-After hint so well-behaved clients back off.
func httpError(w http.ResponseWriter, err error) {
	status, code, msg := http.StatusInternalServerError, httpapi.CodeInternal, err.Error()
	var apiErr *client.Error
	switch {
	case errors.As(err, &apiErr) && apiErr.Code != "":
		status, code, msg = apiErr.Status, apiErr.Code, apiErr.Message
	case errors.Is(err, reachac.ErrShardUnavailable):
		status, code = http.StatusServiceUnavailable, httpapi.CodeShardUnavailable
	case errors.Is(err, httpapi.ErrBadAttribute):
		status, code = http.StatusBadRequest, httpapi.CodeBadRequest
	case errors.Is(err, reachac.ErrUnknownUser):
		status, code = http.StatusNotFound, httpapi.CodeUnknownUser
	case errors.Is(err, reachac.ErrUnknownResource):
		status, code = http.StatusNotFound, httpapi.CodeUnknownResource
	case errors.Is(err, reachac.ErrUnknownRelationship):
		status, code = http.StatusNotFound, httpapi.CodeUnknownRelationship
	case errors.Is(err, reachac.ErrDuplicateUser):
		status, code = http.StatusConflict, httpapi.CodeDuplicateUser
	case errors.Is(err, reachac.ErrDuplicateRelationship):
		status, code = http.StatusConflict, httpapi.CodeDuplicateRelationship
	case errors.Is(err, reachac.ErrSelfRelationship):
		status, code = http.StatusBadRequest, httpapi.CodeSelfRelationship
	case errors.Is(err, reachac.ErrResourceOwned):
		status, code = http.StatusConflict, httpapi.CodeResourceOwned
	case errors.Is(err, reachac.ErrReadOnly):
		status, code = http.StatusServiceUnavailable, httpapi.CodeReadOnly
	case errors.Is(err, reachac.ErrClosed), errors.Is(err, errDraining):
		status, code = http.StatusServiceUnavailable, httpapi.CodeClosed
	case errors.Is(err, errQueueFull), errors.Is(err, errSaturated),
		errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status, code = http.StatusServiceUnavailable, httpapi.CodeOverloaded
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSecs)
	}
	writeJSON(w, status, httpapi.ErrorBody{Error: msg, Code: code})
}

func badRequest(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, httpapi.ErrorBody{Error: err.Error(), Code: httpapi.CodeBadRequest})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		badRequest(w, fmt.Errorf("decoding request body: %w", err))
		return false
	}
	return true
}

// admit reserves a check slot, answering 503 when the server is saturated.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	if !s.gate.acquire(r.Context()) {
		s.checkRejected.Add(1)
		httpError(w, errSaturated)
		return false
	}
	return true
}

// setPartial names the shards missing from an audience answer.
func setPartial(w http.ResponseWriter, partial []int) {
	if len(partial) == 0 {
		return
	}
	parts := make([]string, len(partial))
	for i, idx := range partial {
		parts[i] = strconv.Itoa(idx)
	}
	w.Header().Set(httpapi.HeaderShardPartial, strings.Join(parts, ","))
}

// --- handlers ---

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Health(r.Context()))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.svc.Stats(r.Context())
	st.Server.CheckRejected = s.checkRejected.Load()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleAddUser(w http.ResponseWriter, r *http.Request) {
	var req httpapi.AddUserRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		badRequest(w, errors.New("name is required"))
		return
	}
	id, err := s.svc.AddUser(r.Context(), req.Name, req.Attrs)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, httpapi.UserResponse{ID: id, Name: req.Name})
}

func (s *Server) handleGetUser(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	id, err := s.svc.UserID(r.Context(), name)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, httpapi.UserResponse{ID: id, Name: name})
}

func (s *Server) handleRelate(w http.ResponseWriter, r *http.Request) {
	var req httpapi.RelateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.From == "" || req.To == "" || req.Type == "" {
		badRequest(w, errors.New("from, to and type are required"))
		return
	}
	if err := s.svc.Relate(r.Context(), req.From, req.To, req.Type, req.Mutual); err != nil {
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleUnrelate(w http.ResponseWriter, r *http.Request) {
	var req httpapi.UnrelateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.svc.Unrelate(r.Context(), req.From, req.To, req.Type); err != nil {
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleShare(w http.ResponseWriter, r *http.Request) {
	var req httpapi.ShareRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Resource == "" || req.Owner == "" || len(req.Paths) == 0 {
		badRequest(w, errors.New("resource, owner and at least one path are required"))
		return
	}
	for _, p := range req.Paths {
		if _, err := reachac.ParsePath(p); err != nil {
			badRequest(w, err)
			return
		}
	}
	rule, err := s.svc.Share(r.Context(), req.Resource, req.Owner, req.Paths)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, httpapi.ShareResponse{Rule: rule})
}

func (s *Server) handleRevoke(w http.ResponseWriter, r *http.Request) {
	var req httpapi.RevokeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	removed, err := s.svc.Revoke(r.Context(), req.Resource, req.Rule)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, httpapi.RevokeResponse{Removed: removed})
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	defer s.gate.release()
	q := r.URL.Query()
	resource, requester := q.Get("resource"), q.Get("requester")
	if resource == "" || requester == "" {
		badRequest(w, errors.New("resource and requester are required"))
		return
	}
	d, err := s.svc.Check(r.Context(), resource, requester)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, d)
}

func (s *Server) handleCheckBatch(w http.ResponseWriter, r *http.Request) {
	// Decode before admitting: a slow client trickling its body must not
	// hold a check slot while it does.
	var req httpapi.CheckBatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Resource == "" {
		badRequest(w, errors.New("resource is required"))
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.gate.release()
	ds, err := s.svc.CheckBatch(r.Context(), req.Resource, req.Requesters)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, httpapi.CheckBatchResponse{Decisions: ds})
}

func (s *Server) handleAudience(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	defer s.gate.release()
	resource := r.URL.Query().Get("resource")
	if resource == "" {
		badRequest(w, errors.New("resource is required"))
		return
	}
	names, partial, err := s.svc.Audience(r.Context(), resource)
	if err != nil {
		httpError(w, err)
		return
	}
	setPartial(w, partial)
	writeJSON(w, http.StatusOK, httpapi.UsersResponse{Users: names})
}

func (s *Server) handleReach(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	defer s.gate.release()
	q := r.URL.Query()
	owner, requester, path := q.Get("owner"), q.Get("requester"), q.Get("path")
	if owner == "" || requester == "" || path == "" {
		badRequest(w, errors.New("owner, requester and path are required"))
		return
	}
	canonical, err := reachac.ParsePath(path)
	if err != nil {
		badRequest(w, err)
		return
	}
	reached, err := s.svc.Reach(r.Context(), owner, requester, path)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, httpapi.ReachResponse{Reachable: reached, Path: canonical})
}

func (s *Server) handleReachAudience(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	defer s.gate.release()
	q := r.URL.Query()
	owner, path := q.Get("owner"), q.Get("path")
	if owner == "" || path == "" {
		badRequest(w, errors.New("owner and path are required"))
		return
	}
	if _, err := reachac.ParsePath(path); err != nil {
		badRequest(w, err)
		return
	}
	names, partial, err := s.svc.ReachAudience(r.Context(), owner, path)
	if err != nil {
		httpError(w, err)
		return
	}
	setPartial(w, partial)
	writeJSON(w, http.StatusOK, httpapi.UsersResponse{Users: names})
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	// The audit tail copies the whole retained trail; it rides the same
	// admission gate as every other read.
	if !s.admit(w, r) {
		return
	}
	defer s.gate.release()
	n := 0
	if raw := r.URL.Query().Get("n"); raw != "" {
		var err error
		if n, err = strconv.Atoi(raw); err != nil || n < 0 {
			badRequest(w, errors.New("n must be a non-negative integer"))
			return
		}
	}
	writeJSON(w, http.StatusOK, httpapi.AuditResponse{Decisions: s.svc.Audit(n)})
}

// --- local-network handlers ---

// view pins a read snapshot or reports the failure.
func (s *Server) view(w http.ResponseWriter) (*reachac.View, bool) {
	v, err := s.net.View()
	if err != nil {
		httpError(w, err)
		return nil, false
	}
	return v, true
}

func (s *Server) handleGetPolicies(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.net.SavePolicies(w); err != nil {
		// Headers are gone; the truncated body is the best signal left.
		return
	}
}

func (s *Server) handlePutPolicies(w http.ResponseWriter, r *http.Request) {
	if err := s.net.LoadPolicies(io.LimitReader(r.Body, 64<<20)); err != nil {
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleShardExpand advances one round of a distributed reachability search
// over this backend's local subgraph, on behalf of a shard router. It is a
// read like any other: same snapshot isolation, same admission gate.
func (s *Server) handleShardExpand(w http.ResponseWriter, r *http.Request) {
	var req httpapi.ShardExpandRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.gate.release()
	v, ok := s.view(w)
	if !ok {
		return
	}
	defer v.Close()
	resp, err := v.ShardExpand(req)
	if err != nil {
		badRequest(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleShardPolicies dumps this backend's policy store keyed by user name
// (the SavePolicies form embeds shard-local IDs, useless cross-process).
func (s *Server) handleShardPolicies(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	defer s.gate.release()
	v, ok := s.view(w)
	if !ok {
		return
	}
	defer v.Close()
	writeJSON(w, http.StatusOK, httpapi.ShardPoliciesResponse{Policies: v.PolicyDump()})
}
