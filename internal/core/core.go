// Package core implements the paper's access control model (§2): user
// privacy preferences are stored as access rules (Definition 2), each a set
// of access conditions (Definition 3) whose path expressions must all be
// satisfied by a requester. Each time a user requests a resource, the
// system intercepts the request and, on the basis of the rules, grants or
// denies access.
//
// Semantics implemented here:
//
//   - Deny by default: a resource with no registered rules, or an unknown
//     resource, is accessible only to its owner.
//   - The owner always has access to their own resource.
//   - A rule grants access iff ALL of its access conditions are validated
//     ("In order to be valid, an access rule should have all its access
//     conditions validated", §2).
//   - Multiple rules on one resource are alternative audiences: access is
//     granted iff at least one rule is valid.
//
// Validating a condition reduces to an ordered label-constraint
// reachability query between owner and requester, delegated to an Evaluator
// (online search, transitive closure, or the cluster-based join index).
package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// ResourceID identifies a shared resource (photo, note, profile field, …).
type ResourceID string

// Condition is one access condition (o, p) of Definition 3; the owner o is
// carried by the enclosing rule.
type Condition struct {
	// Path is the reachability constraint the requester must satisfy
	// relative to the owner.
	Path *pathexpr.Path
}

// Rule is an access rule (rid, ACS) of Definition 2, issued by the resource
// owner. All conditions must hold for the rule to grant access.
type Rule struct {
	// ID names the rule within its resource, for auditing.
	ID string
	// Resource is the rid of Definition 2.
	Resource ResourceID
	// Owner is the node the conditions' paths start from.
	Owner graph.NodeID
	// Conditions all must be satisfied (conjunction).
	Conditions []Condition
	// reason is the Allow explanation, built once by Store.AddRule.
	reason string
}

// Validate checks structural sanity of the rule.
func (r *Rule) Validate() error {
	if r.Resource == "" {
		return fmt.Errorf("core: rule %q has empty resource", r.ID)
	}
	if len(r.Conditions) == 0 {
		return fmt.Errorf("core: rule %q has no conditions", r.ID)
	}
	for i, c := range r.Conditions {
		if c.Path == nil {
			return fmt.Errorf("core: rule %q condition %d has nil path", r.ID, i)
		}
		if err := c.Path.Validate(); err != nil {
			return fmt.Errorf("core: rule %q condition %d: %w", r.ID, i, err)
		}
	}
	return nil
}

// Evaluator answers ordered label-constraint reachability queries. The
// engines in internal/search, internal/tclosure and internal/joinindex all
// implement it.
type Evaluator interface {
	Reachable(owner, requester graph.NodeID, p *pathexpr.Path) (bool, error)
}

// IncrementalEvaluator is implemented by evaluators that can advance in
// place after the graph they were built over — a snapshot's private clone —
// has been fast-forwarded by a batch of recorded deltas (graph.Delta).
//
// ApplyDelta is called with the already-advanced clone and the delta batch
// that advanced it, and reports whether the evaluator absorbed the batch.
// Returning false declines the batch: the caller must rebuild the evaluator
// from scratch over g, so correctness holds by construction — an evaluator
// may decline any delta it cannot (or would rather not) handle
// incrementally, and a partially-advanced evaluator that declined must
// simply never be queried again. ApplyDelta is never invoked concurrently
// with queries; the caller guarantees the evaluator is quiescent.
type IncrementalEvaluator interface {
	Evaluator
	ApplyDelta(g *graph.Graph, deltas []graph.Delta) bool
}

// Store holds resource ownership and the access rules protecting each
// resource. It is safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	owners map[ResourceID]graph.NodeID
	rules  map[ResourceID][]*Rule
	nextID int
	// frozen marks an immutable view (see Freeze): reads skip the lock and
	// mutations panic.
	frozen bool
	// gen counts policy mutations (registrations, rule additions and
	// removals). Snapshot-isolated readers record it to detect staleness;
	// it is atomic so the check needs no lock.
	gen atomic.Uint64
}

// Generation returns the policy mutation counter: it changes whenever a
// resource is registered or a rule is added or removed. Like
// graph.Graph.Version it is safe to read concurrently with mutations.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// Clone returns an independent copy of the store — a frozen policy view for
// snapshot-isolated evaluation. Rule values are shared (they are immutable
// once added); the per-resource rule slices and ownership map are copied, so
// later mutations of s are invisible to the clone and vice versa.
func (s *Store) Clone() *Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := &Store{
		owners: make(map[ResourceID]graph.NodeID, len(s.owners)),
		rules:  make(map[ResourceID][]*Rule, len(s.rules)),
		nextID: s.nextID,
	}
	for r, o := range s.owners {
		c.owners[r] = o
	}
	for r, rs := range s.rules {
		c.rules[r] = append([]*Rule(nil), rs...)
	}
	return c
}

// Freeze returns a frozen copy of the store: an immutable policy view for
// snapshot-isolated evaluation whose decisions read the rules without
// locking or copying them. Mutating a frozen store panics.
func (s *Store) Freeze() *Store {
	c := s.Clone()
	c.frozen = true
	return c
}

// lock takes the write lock of a mutable store.
func (s *Store) lock() {
	if s.frozen {
		panic("core: mutation of a frozen store")
	}
	s.mu.Lock()
}

// NewStore returns an empty policy store.
func NewStore() *Store {
	return &Store{
		owners: make(map[ResourceID]graph.NodeID),
		rules:  make(map[ResourceID][]*Rule),
	}
}

// Register declares a resource and its owner. Re-registering with a
// different owner is an error.
func (s *Store) Register(res ResourceID, owner graph.NodeID) error {
	s.lock()
	defer s.mu.Unlock()
	if cur, ok := s.owners[res]; ok && cur != owner {
		return fmt.Errorf("core: resource %q already owned by node %d", res, cur)
	}
	if _, ok := s.owners[res]; !ok {
		s.owners[res] = owner
		s.gen.Add(1)
	}
	return nil
}

// Unregister removes a resource registration, provided no rules are
// attached, and reports whether it did. It exists so a rolled-back batch
// can undo the registration its Share created (the rule itself having been
// removed first).
func (s *Store) Unregister(res ResourceID) bool {
	s.lock()
	defer s.mu.Unlock()
	if _, ok := s.owners[res]; !ok || len(s.rules[res]) > 0 {
		return false
	}
	delete(s.owners, res)
	delete(s.rules, res)
	s.gen.Add(1)
	return true
}

// Owner returns the owner of a registered resource.
func (s *Store) Owner(res ResourceID) (graph.NodeID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.owners[res]
	return o, ok
}

// AddRule attaches a rule to its resource. The resource must be registered
// and owned by the rule's owner. An empty rule ID is assigned automatically.
func (s *Store) AddRule(r *Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	s.lock()
	defer s.mu.Unlock()
	owner, ok := s.owners[r.Resource]
	if !ok {
		return fmt.Errorf("core: resource %q not registered", r.Resource)
	}
	if owner != r.Owner {
		return fmt.Errorf("core: rule owner %d is not resource owner %d", r.Owner, owner)
	}
	if r.ID == "" {
		s.nextID++
		r.ID = fmt.Sprintf("rule-%d", s.nextID)
	} else if n, ok := ruleSeq(r.ID); ok && n > s.nextID {
		// An explicit auto-style ID (rule-N) — as restored by ReadStore or
		// WAL replay — must advance the counter, or the next auto-assigned
		// ID would collide with it.
		s.nextID = n
	}
	for _, existing := range s.rules[r.Resource] {
		if existing.ID == r.ID {
			return fmt.Errorf("core: duplicate rule id %q on resource %q", r.ID, r.Resource)
		}
	}
	r.reason = fmt.Sprintf("all conditions of rule %q satisfied", r.ID)
	s.rules[r.Resource] = append(s.rules[r.Resource], r)
	s.gen.Add(1)
	return nil
}

// ruleSeq parses an auto-assigned rule ID of the form "rule-N".
func ruleSeq(id string) (int, bool) {
	const prefix = "rule-"
	if len(id) <= len(prefix) || id[:len(prefix)] != prefix {
		return 0, false
	}
	n := 0
	for _, c := range id[len(prefix):] {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := int(c - '0')
		if n > (1<<31-1-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// RemoveRule detaches a rule by id; it reports whether the rule existed.
func (s *Store) RemoveRule(res ResourceID, ruleID string) bool {
	s.lock()
	defer s.mu.Unlock()
	rules := s.rules[res]
	for i, r := range rules {
		if r.ID == ruleID {
			// Copy instead of splicing in place. Not strictly required —
			// Clone and RulesFor hand out their own slice copies — but it
			// keeps old backing arrays immutable so no future reader can
			// come to depend on that splice being private.
			next := make([]*Rule, 0, len(rules)-1)
			next = append(next, rules[:i]...)
			next = append(next, rules[i+1:]...)
			s.rules[res] = next
			s.gen.Add(1)
			return true
		}
	}
	return false
}

// lookup returns a resource's owner and rules without copying the rule
// slice, which callers must not modify: rule slices are never spliced in
// place (see RemoveRule). A frozen store is read without locking.
func (s *Store) lookup(res ResourceID) (graph.NodeID, []*Rule, bool) {
	if !s.frozen {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	owner, ok := s.owners[res]
	return owner, s.rules[res], ok
}

// RulesFor returns a copy of the rules protecting a resource.
func (s *Store) RulesFor(res ResourceID) []*Rule {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*Rule(nil), s.rules[res]...)
}

// Resources returns all registered resource IDs, sorted.
func (s *Store) Resources() []ResourceID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ResourceID, 0, len(s.owners))
	for r := range s.owners {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Effect is the outcome of an access decision.
type Effect uint8

// Decision effects.
const (
	Deny Effect = iota
	Allow
)

// String renders the effect as "allow" or "deny".
func (e Effect) String() string {
	if e == Allow {
		return "allow"
	}
	return "deny"
}

// Decision records the outcome of one access request.
type Decision struct {
	Resource  ResourceID
	Requester graph.NodeID
	Effect    Effect
	// RuleID is the granting rule, "owner" for owner access, "" on deny.
	RuleID string
	// Reason is a human-readable explanation.
	Reason string
}

// AuditLog is a bounded, concurrency-safe decision trail. It is shared by
// pointer so that a trail survives engine rebuilds (e.g. snapshot
// republication after a graph mutation).
type AuditLog struct {
	mu sync.Mutex
	// trail is a ring preallocated to limit entries: it fills by append,
	// then each Record overwrites the oldest entry, at next.
	trail []Decision
	next  int
	limit int
}

// NewAuditLog returns an audit log retaining at most limit decisions
// (0 keeps the default of 1024 entries; negative disables auditing).
func NewAuditLog(limit int) *AuditLog {
	if limit == 0 {
		limit = 1024
	}
	l := &AuditLog{limit: limit}
	if limit > 0 {
		l.trail = make([]Decision, 0, limit)
	}
	return l
}

// Record appends one decision, overwriting the oldest beyond the limit.
func (l *AuditLog) Record(d Decision) {
	if l.limit < 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.trail) < l.limit {
		l.trail = append(l.trail, d)
		return
	}
	l.trail[l.next] = d
	l.next = (l.next + 1) % l.limit
}

// Decisions returns a copy of the retained trail, oldest first.
func (l *AuditLog) Decisions() []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.trail) == 0 {
		return nil
	}
	out := make([]Decision, 0, len(l.trail))
	out = append(out, l.trail[l.next:]...)
	return append(out, l.trail[:l.next]...)
}

// Len returns the retained trail length without copying it.
func (l *AuditLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.trail)
}

// Engine intercepts access requests and decides them against a Store using
// an Evaluator, keeping a bounded audit trail. Decide is safe for concurrent
// use provided the Store and Evaluator are (a frozen Store clone and a
// read-only evaluator in the snapshot-isolated configuration).
type Engine struct {
	store *Store
	eval  Evaluator
	log   *AuditLog
}

// NewEngine returns a decision engine. auditLimit bounds the retained audit
// trail (0 keeps the default of 1024 entries; negative disables auditing).
func NewEngine(store *Store, eval Evaluator, auditLimit int) *Engine {
	return NewEngineWithLog(store, eval, NewAuditLog(auditLimit))
}

// NewEngineWithLog returns a decision engine recording to an existing audit
// log, so that several engine incarnations share one trail.
func NewEngineWithLog(store *Store, eval Evaluator, log *AuditLog) *Engine {
	return &Engine{store: store, eval: eval, log: log}
}

// Decide answers one access request: may requester access res?
func (e *Engine) Decide(res ResourceID, requester graph.NodeID) (Decision, error) {
	d := Decision{Resource: res, Requester: requester}
	owner, rules, ok := e.store.lookup(res)
	if !ok {
		d.Reason = "unknown resource"
		e.record(d)
		return d, nil
	}
	if owner == requester {
		d.Effect = Allow
		d.RuleID = "owner"
		d.Reason = "requester owns the resource"
		e.record(d)
		return d, nil
	}
	for _, rule := range rules {
		valid := true
		for _, cond := range rule.Conditions {
			ok, err := e.eval.Reachable(rule.Owner, requester, cond.Path)
			if err != nil {
				return Decision{}, fmt.Errorf("core: evaluating rule %q: %w", rule.ID, err)
			}
			if !ok {
				valid = false
				break
			}
		}
		if valid {
			d.Effect = Allow
			d.RuleID = rule.ID
			d.Reason = rule.reason
			e.record(d)
			return d, nil
		}
	}
	d.Reason = "no access rule satisfied"
	e.record(d)
	return d, nil
}

func (e *Engine) record(d Decision) { e.log.Record(d) }

// Audit returns a copy of the retained decision trail, oldest first.
func (e *Engine) Audit() []Decision { return e.log.Decisions() }

// Log returns the engine's audit log.
func (e *Engine) Log() *AuditLog { return e.log }
