package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reachac/internal/httpapi"
)

// Trace headers join a client-side span to the handler span the server
// records for the same request.
const (
	headerRequest = "X-Bench-Request"
	headerParent  = "X-Bench-Parent"
)

// span is one timed call at a layer boundary. Its name is
// "<layer>.<operation>"; start and end are nanoseconds since the tracer's
// epoch.
type span struct {
	name       string
	id, parent uint64
	req        uint64
	start, end int64
}

func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

// tracer keeps spans in memory until the run ends: one buffer per worker,
// written only by that worker, plus a locked buffer for spans recorded on
// server goroutines. Each buffer stops growing at limit spans. One
// operation in every is traced.
type tracer struct {
	epoch   time.Time
	ids     atomic.Uint64
	limit   int
	every   uint64
	workers [][]span
	mu      sync.Mutex
	shared  []span
	dropped atomic.Uint64
}

func newTracer(workers, limit int, every uint64) *tracer {
	return &tracer{epoch: time.Now(), limit: limit, every: every, workers: make([][]span, workers)}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

func (tr *tracer) record(worker int, s span) {
	if worker >= 0 {
		if len(tr.workers[worker]) < tr.limit {
			tr.workers[worker] = append(tr.workers[worker], s)
			return
		}
		tr.dropped.Add(1)
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.shared) < tr.limit {
		tr.shared = append(tr.shared, s)
		return
	}
	tr.dropped.Add(1)
}

// spans returns every recorded span; call it only after the traced window
// and the server have stopped.
func (tr *tracer) spans() []span {
	var all []span
	for _, b := range tr.workers {
		all = append(all, b...)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append(all, tr.shared...)
}

// spanCtx is a goroutine's position in a trace: the span that is open and
// the request it belongs to. A nil *spanCtx means tracing is off.
type spanCtx struct {
	tr     *tracer
	worker int
	req    uint64
	parent uint64
}

// root opens the span of one benchmark operation.
func (tr *tracer) root(worker int, name string) (*spanCtx, func()) {
	return (&spanCtx{tr: tr, worker: worker, req: tr.ids.Add(1)}).child(name)
}

// child opens span name under sc and returns the context nested inside it
// and the function that closes it.
func (sc *spanCtx) child(name string) (*spanCtx, func()) {
	if sc == nil {
		return nil, func() {}
	}
	id := sc.tr.ids.Add(1)
	start := sc.tr.now()
	inner := &spanCtx{tr: sc.tr, worker: sc.worker, req: sc.req, parent: id}
	return inner, func() {
		sc.tr.record(sc.worker, span{name: name, id: id, parent: sc.parent, req: sc.req, start: start, end: sc.tr.now()})
	}
}

type spanKey struct{}

func withSpan(ctx context.Context, sc *spanCtx) context.Context {
	if sc == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sc)
}

// tracingTransport records a "wire" span around each round trip and
// stamps the request with its request ID and span ID.
type tracingTransport struct{ base http.RoundTripper }

func (t tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	sc, _ := r.Context().Value(spanKey{}).(*spanCtx)
	if sc == nil {
		return t.base.RoundTrip(r)
	}
	inner, finish := sc.child("wire." + route(r))
	defer finish()
	r = r.Clone(r.Context())
	r.Header.Set(headerRequest, strconv.FormatUint(inner.req, 10))
	r.Header.Set(headerParent, strconv.FormatUint(inner.parent, 10))
	return t.base.RoundTrip(r)
}

// tracingHandler wraps the server's ServeHTTP: while a tracer is installed
// it records a "server" span for every request carrying trace headers.
type tracingHandler struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
}

func (h *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil || r.Header.Get(headerRequest) == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseUint(r.Header.Get(headerRequest), 10, 64)
	parent, _ := strconv.ParseUint(r.Header.Get(headerParent), 10, 64)
	start := tr.now()
	h.next.ServeHTTP(w, r)
	tr.record(-1, span{name: "server." + route(r), id: tr.ids.Add(1), parent: parent, req: req, start: start, end: tr.now()})
}

// route names the operation kind an API request carries.
func route(r *http.Request) string {
	switch r.URL.Path {
	case httpapi.PathCheck:
		return "check"
	case httpapi.PathCheckBatch:
		return "check-batch"
	case httpapi.PathAudience:
		return "audience"
	case httpapi.PathRelationships, httpapi.PathShare, httpapi.PathRevoke:
		return "write"
	default:
		return "other"
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children are clipped to the
// parent's interval and overlapping children are counted once, so a self
// time is never negative.
func selfTimes(spans []span) []int64 {
	children := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, reach := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(spans[k].start, reach), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// writeSpans writes the spans as tab-separated lines: name, id, parent,
// request, start and end in nanoseconds since the trace began.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tid\tparent\treq\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", s.name, s.id, s.parent, s.req, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
