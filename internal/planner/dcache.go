package planner

import (
	"sync"
	"sync/atomic"

	"reachac/internal/core"
	"reachac/internal/graph"
)

// DecisionCache memoizes access decisions per (resource, requester) with
// per-delta invalidation: each resource is tagged with the label set its
// rules can traverse, and a graph delta evicts only the entries whose
// resource tag intersects the delta. The eviction rule exploits
// monotonicity:
//
//   - an edge ADDITION can only create reachability, so cached Allow
//     entries stay correct unconditionally; a cached Deny is evicted iff
//     the added edge's label is one the resource's rules constrain on
//     (otherwise no rule path can cross the new edge);
//   - an edge REMOVAL can only destroy reachability, so cached Deny
//     entries stay correct unconditionally; a cached Allow is evicted iff
//     the removed edge's label intersects its tag — except owner grants
//     (RuleID "owner"), which no edge can revoke;
//   - node additions and tombstone compactions change no existing
//     reachability and evict nothing.
//
// A surviving entry preserves the decision's Effect, which is what access
// control answers; its RuleID/Reason may name a different rule than a fresh
// evaluation would (an addition can make an earlier rule match first). Any
// POLICY change invalidates the tags themselves, so the facade starts a
// fresh cache at every policy generation — Advance only ever sees pure
// graph deltas.
//
// The label tag is the union over ALL of the resource's rules, computed
// once per resource through the labelsFor callback; an unregistered
// resource has an empty tag, so its Deny is never evicted by graph deltas
// (registration is a policy change). Tags are label NAMES, not table
// ordinals, so label-table growth cannot alias them.
//
// Layout. A cache lives for one policy generation, so each resource it sees
// is interned once to a dense ordinal that owns the resource's tag. An entry
// is a packed uint64 key (ordinal<<32 | requester) mapped to a uint32 index
// into a per-cache table of decision templates (Effect, RuleID, Reason —
// one per distinct outcome, i.e. a handful per rule). The entries live in
// sharded maps of non-pointer types, so the garbage collector never scans
// them and a Put into an existing map slot allocates nothing; Get rebuilds
// the Decision from the key's arguments and the template.
//
// Get/Put are safe for concurrent use and the hit path performs no heap
// allocations. Advance requires quiescence — the publisher's retired-spare
// proof, exactly like search.AudienceCache.Advance.
type DecisionCache struct {
	len    atomic.Int64
	ctr    *CacheCounters
	shards [dcacheShards]dcacheShard
	// ords interns resources to ordinals: core.ResourceID -> uint32.
	ords sync.Map
	// templates is the published template table; it only grows, and an
	// index stored in a shard always refers to an already-published
	// element. templateIdx maps a template to its index:
	// decisionTemplate -> uint32.
	templates   atomic.Pointer[[]decisionTemplate]
	templateIdx sync.Map

	// mu guards interning and template registration (the slow path of a
	// resource's or an outcome's first Put).
	mu sync.Mutex
	// labelsFor resolves a resource to the label-name union of its rules'
	// path steps against the snapshot's frozen policy view.
	labelsFor func(core.ResourceID) []string
	// tags holds each ordinal's label tag.
	tags [][]string
}

// CacheCounters tallies decision-cache traffic. The block is owned by the
// Planner and shared across the network's successive caches, so the
// counters are monotonic over the process lifetime, not per snapshot.
type CacheCounters struct {
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// decisionTemplate is a cached decision minus its (resource, requester)
// pair, which the entry's key carries.
type decisionTemplate struct {
	effect core.Effect
	ruleID string
	reason string
}

// dcacheShards is the number of entry shards. Shards keep concurrent Puts
// on different requesters off one lock.
const (
	dcacheShardBits = 6
	dcacheShards    = 1 << dcacheShardBits
)

// dcacheShard is one lock-striped slice of the entries: packed key ->
// template index. Both are non-pointer types, so the map's buckets are
// never scanned by the GC. The map is created on first Put, which keeps
// NewDecisionCache O(1).
type dcacheShard struct {
	mu sync.Mutex
	m  map[uint64]uint32
	// Pad to a cache line so neighbouring shards' locks do not share one.
	_ [48]byte
}

// maxCachedDecisions caps one cache's entries. Entries beyond the cap are
// decided but not memoized; the cap is generous because an entry is small
// and policy churn restarts the cache.
const maxCachedDecisions = 1 << 20

// NewDecisionCache returns an empty cache. labelsFor must resolve a
// resource to the union of label names its rules' paths constrain on, read
// from an immutable policy view; ctr may be shared across caches (see
// Planner.CacheCounters) or nil for a private block.
func NewDecisionCache(labelsFor func(core.ResourceID) []string, ctr *CacheCounters) *DecisionCache {
	if ctr == nil {
		ctr = new(CacheCounters)
	}
	return &DecisionCache{ctr: ctr, labelsFor: labelsFor}
}

// dcacheKey packs one (resource ordinal, requester) pair.
func dcacheKey(ord uint32, req graph.NodeID) uint64 {
	return uint64(ord)<<32 | uint64(req)
}

// shard returns the shard holding key (a Fibonacci hash of the whole key,
// so one resource's requesters spread over every shard).
func (c *DecisionCache) shard(key uint64) *dcacheShard {
	return &c.shards[(key*0x9E3779B97F4A7C15)>>(64-dcacheShardBits)]
}

// Get returns the cached decision for (res, req). The hit path is
// allocation-free.
func (c *DecisionCache) Get(res core.ResourceID, req graph.NodeID) (core.Decision, bool) {
	if v, ok := c.ords.Load(res); ok {
		key := dcacheKey(v.(uint32), req)
		sh := c.shard(key)
		sh.mu.Lock()
		idx, hit := sh.m[key]
		sh.mu.Unlock()
		if hit {
			c.ctr.hits.Add(1)
			t := &(*c.templates.Load())[idx]
			return core.Decision{Resource: res, Requester: req, Effect: t.effect, RuleID: t.ruleID, Reason: t.reason}, true
		}
	}
	c.ctr.misses.Add(1)
	return core.Decision{}, false
}

// Put memoizes one decision under its resource's label tag.
func (c *DecisionCache) Put(res core.ResourceID, req graph.NodeID, d core.Decision) {
	if c.len.Load() >= maxCachedDecisions {
		return
	}
	key := dcacheKey(c.ordinal(res), req)
	idx := c.template(decisionTemplate{effect: d.Effect, ruleID: d.RuleID, reason: d.Reason})
	sh := c.shard(key)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[uint64]uint32)
	}
	if _, dup := sh.m[key]; !dup {
		sh.m[key] = idx
		c.len.Add(1)
	}
	sh.mu.Unlock()
}

// ordinal returns res's ordinal, interning it (and resolving its tag) on
// first sight.
func (c *DecisionCache) ordinal(res core.ResourceID) uint32 {
	if v, ok := c.ords.Load(res); ok {
		return v.(uint32)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.ords.Load(res); ok {
		return v.(uint32)
	}
	ord := uint32(len(c.tags))
	c.tags = append(c.tags, c.labelsFor(res))
	c.ords.Store(res, ord)
	return ord
}

// template returns the index of t in the template table, registering it on
// first sight (templates are few — a handful per rule — so registration is
// rare).
func (c *DecisionCache) template(t decisionTemplate) uint32 {
	if v, ok := c.templateIdx.Load(t); ok {
		return v.(uint32)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.templateIdx.Load(t); ok {
		return v.(uint32)
	}
	var table []decisionTemplate
	if p := c.templates.Load(); p != nil {
		table = *p
	}
	// Appending may write past the published length in a shared backing
	// array, which no reader indexes: every index a reader can find in a
	// shard was published before it was stored there.
	table = append(table, t)
	c.templates.Store(&table)
	idx := uint32(len(table) - 1)
	c.templateIdx.Store(t, idx)
	return idx
}

// Len returns the number of cached decisions.
func (c *DecisionCache) Len() int { return int(c.len.Load()) }

// Eviction flags, per resource ordinal and per template.
const (
	evictDeny  uint8 = 1 << iota // a Deny may have flipped (an added label)
	evictAllow                   // a revocable Allow may have flipped (a removed label)
)

// Advance applies one published delta batch: it evicts exactly the entries
// the batch could have flipped (see the type comment for the monotonicity
// argument) and keeps the rest warm. The evict flags are computed once per
// resource and once per template, then every shard is swept. The caller
// must guarantee no concurrent Get/Put, which the snapshot-advance protocol
// does.
func (c *DecisionCache) Advance(deltas []graph.Delta) {
	var added, removed []string
	for _, d := range deltas {
		switch d.Op {
		case graph.OpAddEdge:
			added = appendLabel(added, d.Label)
		case graph.OpRemoveEdge:
			removed = appendLabel(removed, d.Label)
		}
	}
	if len(added) == 0 && len(removed) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	resFlags := make([]uint8, len(c.tags))
	flagged := false
	for ord, tag := range c.tags {
		if intersects(tag, added) {
			resFlags[ord] |= evictDeny
		}
		if intersects(tag, removed) {
			resFlags[ord] |= evictAllow
		}
		flagged = flagged || resFlags[ord] != 0
	}
	if !flagged {
		return
	}
	// A template is exposed to exactly one kind of flip: a Deny to
	// additions, a non-owner Allow to removals, an owner grant to none.
	var table []decisionTemplate
	if p := c.templates.Load(); p != nil {
		table = *p
	}
	tmplFlags := make([]uint8, len(table))
	for i, t := range table {
		switch {
		case t.effect == core.Deny:
			tmplFlags[i] = evictDeny
		case t.ruleID != "owner":
			tmplFlags[i] = evictAllow
		}
	}
	var evicted int64
	for i := range c.shards {
		sh := &c.shards[i]
		for key, idx := range sh.m {
			if resFlags[key>>32]&tmplFlags[idx] != 0 {
				delete(sh.m, key)
				evicted++
			}
		}
	}
	c.len.Add(-evicted)
	c.ctr.evictions.Add(uint64(evicted))
}

// appendLabel adds l to set if absent (delta batches repeat few labels, so
// a linear scan beats a map).
func appendLabel(set []string, l string) []string {
	for _, s := range set {
		if s == l {
			return set
		}
	}
	return append(set, l)
}

// intersects reports whether the two label-name sets share an element.
func intersects(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}
