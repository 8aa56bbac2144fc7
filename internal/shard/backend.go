// Package shard is the horizontal-scaling layer: a partition-aware router
// that consistent-hashes users and resource owners across N shard backends,
// each a full reachac stack with its own durable WAL directory. Backends are
// either embedded Networks (in-process, for benchmarking and tests) or real
// acserverd processes reached through the typed client package.
//
// Placement invariants the router maintains:
//
//   - Users (with their attributes) are replicated to EVERY shard, so any
//     shard can resolve names and evaluate node predicates.
//   - A relationship is written to the shard owning each endpoint — one
//     write when co-located, two when the edge straddles the partition cut
//     (boundary-node replication). An owned node's adjacency is therefore
//     COMPLETE on its owner shard, which is what lets the distributed
//     search make multi-hop progress locally and hand over exactly at
//     ownership boundaries.
//   - A resource's policy lives on the shard owning its owner's name; the
//     router keeps a name-keyed routing cache of every policy (rebuilt from
//     the shards at startup) to route checks and catch cross-shard
//     ownership conflicts.
//
// Queries either delegate whole to one shard (single-shard fast path: one
// backend total, or a policy whose every condition is a single depth-1 step,
// answerable from the owner's complete local adjacency) or scatter-gather:
// the router drives a distributed product-BFS round by round across the
// owning shards (reachac.ShardExpand), merging audiences and deduplicating
// states globally. Checks fail CLOSED when a needed shard is unreachable;
// audiences degrade to a partial answer flagged with the X-Shard-Partial
// header.
package shard

import (
	"context"
	"fmt"

	"reachac"
	"reachac/client"
	"reachac/internal/httpapi"
)

// Backend is one shard as the router drives it. All identifiers are names:
// numeric IDs are shard-local and never compared across backends. Embedded
// and remote implementations return the same reachac sentinel errors
// (directly, or via the client's code mapping), so the router classifies
// failures uniformly.
type Backend interface {
	AddUser(ctx context.Context, name string, attrs map[string]any) (uint32, error)
	UserID(ctx context.Context, name string) (uint32, error)
	Relate(ctx context.Context, from, to, relType string, mutual bool) error
	Unrelate(ctx context.Context, from, to, relType string) error
	Share(ctx context.Context, resource, owner string, paths []string) (string, error)
	Revoke(ctx context.Context, resource, rule string) (bool, error)

	Check(ctx context.Context, resource, requester string) (httpapi.Decision, error)
	CheckBatch(ctx context.Context, resource string, requesters []string) ([]httpapi.Decision, error)
	Audience(ctx context.Context, resource string) ([]string, error)

	Expand(ctx context.Context, req reachac.ShardExpandRequest) (reachac.ShardExpandResponse, error)
	Policies(ctx context.Context) ([]reachac.ResourcePolicy, error)
	Stats(ctx context.Context) (httpapi.StatsResponse, error)
	Close() error
}

// --- embedded backend ---

// Embedded wraps an in-process Network as a shard backend. The router owns
// the network's lifecycle: Close closes it.
type Embedded struct {
	net *reachac.Network
}

// NewEmbedded wraps n as a shard backend.
func NewEmbedded(n *reachac.Network) *Embedded { return &Embedded{net: n} }

// Network exposes the wrapped network (tests, stats).
func (b *Embedded) Network() *reachac.Network { return b.net }

func (b *Embedded) AddUser(_ context.Context, name string, attrs map[string]any) (uint32, error) {
	as, err := httpapi.AttrsFromWire(attrs)
	if err != nil {
		return 0, err
	}
	id, err := b.net.AddUser(name, as...)
	return uint32(id), err
}

func (b *Embedded) UserID(_ context.Context, name string) (uint32, error) {
	id, ok := b.net.UserID(name)
	if !ok {
		return 0, fmt.Errorf("user %q: %w", name, reachac.ErrUnknownUser)
	}
	return uint32(id), nil
}

// resolve2 resolves two member names in one view.
func (b *Embedded) resolve2(from, to string) (reachac.UserID, reachac.UserID, error) {
	v, err := b.net.View()
	if err != nil {
		return 0, 0, err
	}
	defer v.Close()
	f, ok := v.UserID(from)
	if !ok {
		return 0, 0, fmt.Errorf("user %q: %w", from, reachac.ErrUnknownUser)
	}
	t, ok := v.UserID(to)
	if !ok {
		return 0, 0, fmt.Errorf("user %q: %w", to, reachac.ErrUnknownUser)
	}
	return f, t, nil
}

func (b *Embedded) Relate(_ context.Context, from, to, relType string, mutual bool) error {
	f, t, err := b.resolve2(from, to)
	if err != nil {
		return err
	}
	if mutual {
		return b.net.RelateMutual(f, t, relType)
	}
	return b.net.Relate(f, t, relType)
}

func (b *Embedded) Unrelate(_ context.Context, from, to, relType string) error {
	f, t, err := b.resolve2(from, to)
	if err != nil {
		return err
	}
	return b.net.Unrelate(f, t, relType)
}

func (b *Embedded) Share(_ context.Context, resource, owner string, paths []string) (string, error) {
	oid, ok := b.net.UserID(owner)
	if !ok {
		return "", fmt.Errorf("user %q: %w", owner, reachac.ErrUnknownUser)
	}
	return b.net.Share(resource, oid, paths...)
}

func (b *Embedded) Revoke(_ context.Context, resource, rule string) (bool, error) {
	return b.net.Revoke(resource, rule), nil
}

func (b *Embedded) Check(_ context.Context, resource, requester string) (httpapi.Decision, error) {
	v, err := b.net.View()
	if err != nil {
		return httpapi.Decision{}, err
	}
	defer v.Close()
	id, ok := v.UserID(requester)
	if !ok {
		return httpapi.Decision{}, fmt.Errorf("user %q: %w", requester, reachac.ErrUnknownUser)
	}
	d, err := v.CanAccess(resource, id)
	if err != nil {
		return httpapi.Decision{}, err
	}
	return httpapi.WireDecision(v, d), nil
}

func (b *Embedded) CheckBatch(_ context.Context, resource string, requesters []string) ([]httpapi.Decision, error) {
	v, err := b.net.View()
	if err != nil {
		return nil, err
	}
	defer v.Close()
	ids := make([]reachac.UserID, len(requesters))
	for i, name := range requesters {
		id, ok := v.UserID(name)
		if !ok {
			return nil, fmt.Errorf("user %q: %w", name, reachac.ErrUnknownUser)
		}
		ids[i] = id
	}
	ds, err := v.CanAccessAll(resource, ids)
	if err != nil {
		return nil, err
	}
	out := make([]httpapi.Decision, len(ds))
	for i, d := range ds {
		out[i] = httpapi.WireDecision(v, d)
	}
	return out, nil
}

func (b *Embedded) Audience(_ context.Context, resource string) ([]string, error) {
	v, err := b.net.View()
	if err != nil {
		return nil, err
	}
	defer v.Close()
	ids, err := v.Audience(resource)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ids))
	for _, id := range ids {
		if name, ok := v.UserName(id); ok {
			names = append(names, name)
		}
	}
	return names, nil
}

func (b *Embedded) Expand(_ context.Context, req reachac.ShardExpandRequest) (reachac.ShardExpandResponse, error) {
	v, err := b.net.View()
	if err != nil {
		return reachac.ShardExpandResponse{}, err
	}
	defer v.Close()
	return v.ShardExpand(req)
}

func (b *Embedded) Policies(_ context.Context) ([]reachac.ResourcePolicy, error) {
	v, err := b.net.View()
	if err != nil {
		return nil, err
	}
	defer v.Close()
	return v.PolicyDump(), nil
}

func (b *Embedded) Stats(_ context.Context) (httpapi.StatsResponse, error) {
	return httpapi.StatsResponse{Stats: b.net.Stats()}, nil
}

func (b *Embedded) Close() error { return b.net.Close() }

// --- remote backend ---

// Remote drives a real acserverd process through the typed client.
type Remote struct {
	c *client.Client
}

// NewRemote wraps a client as a shard backend.
func NewRemote(c *client.Client) *Remote { return &Remote{c: c} }

func (b *Remote) AddUser(ctx context.Context, name string, attrs map[string]any) (uint32, error) {
	id, err := b.c.AddUser(ctx, name, attrs)
	return uint32(id), err
}

func (b *Remote) UserID(ctx context.Context, name string) (uint32, error) {
	id, err := b.c.UserID(ctx, name)
	return uint32(id), err
}

func (b *Remote) Relate(ctx context.Context, from, to, relType string, mutual bool) error {
	if mutual {
		return b.c.RelateMutual(ctx, from, to, relType)
	}
	return b.c.Relate(ctx, from, to, relType)
}

func (b *Remote) Unrelate(ctx context.Context, from, to, relType string) error {
	return b.c.Unrelate(ctx, from, to, relType)
}

func (b *Remote) Share(ctx context.Context, resource, owner string, paths []string) (string, error) {
	return b.c.Share(ctx, resource, owner, paths...)
}

func (b *Remote) Revoke(ctx context.Context, resource, rule string) (bool, error) {
	return b.c.Revoke(ctx, resource, rule)
}

func (b *Remote) Check(ctx context.Context, resource, requester string) (httpapi.Decision, error) {
	return b.c.Check(ctx, resource, requester)
}

func (b *Remote) CheckBatch(ctx context.Context, resource string, requesters []string) ([]httpapi.Decision, error) {
	return b.c.CheckBatch(ctx, resource, requesters)
}

func (b *Remote) Audience(ctx context.Context, resource string) ([]string, error) {
	return b.c.Audience(ctx, resource)
}

func (b *Remote) Expand(ctx context.Context, req reachac.ShardExpandRequest) (reachac.ShardExpandResponse, error) {
	return b.c.ShardExpand(ctx, req)
}

func (b *Remote) Policies(ctx context.Context) ([]reachac.ResourcePolicy, error) {
	return b.c.ShardPolicies(ctx)
}

func (b *Remote) Stats(ctx context.Context) (httpapi.StatsResponse, error) {
	return b.c.Stats(ctx)
}

func (b *Remote) Close() error { return nil }
