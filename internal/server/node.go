package server

import (
	"context"
	"fmt"
	"time"

	"reachac"
	"reachac/internal/httpapi"
)

// node is the Service over one local Network: reads are answered off a
// pinned View of the published snapshot, mutations ride the coalescer's
// shared commit groups.
type node struct {
	net *reachac.Network
	co  *coalescer
}

// lookup resolves a member name in a View, or in a Tx — there the ID is
// consistent with everything the commit group applied before this op, so
// a user added earlier in the same group resolves correctly.
func lookup(in interface {
	UserID(string) (reachac.UserID, bool)
}, name string) (reachac.UserID, error) {
	id, ok := in.UserID(name)
	if !ok {
		return 0, fmt.Errorf("user %q: %w", name, reachac.ErrUnknownUser)
	}
	return id, nil
}

func namesOf(v *reachac.View, ids []reachac.UserID) []string {
	names := make([]string, 0, len(ids))
	for _, id := range ids {
		if name, ok := v.UserName(id); ok {
			names = append(names, name)
		}
	}
	return names
}

func (n *node) AddUser(ctx context.Context, name string, attrs map[string]any) (uint32, error) {
	as, err := httpapi.AttrsFromWire(attrs)
	if err != nil {
		return 0, err
	}
	var id reachac.UserID
	err = n.co.enqueue(ctx, func(tx *reachac.Tx) error {
		var e error
		id, e = tx.AddUser(name, as...)
		return e
	})
	return uint32(id), err
}

func (n *node) UserID(_ context.Context, name string) (uint32, error) {
	v, err := n.net.View()
	if err != nil {
		return 0, err
	}
	defer v.Close()
	id, err := lookup(v, name)
	return uint32(id), err
}

func (n *node) Relate(ctx context.Context, from, to, relType string, mutual bool) error {
	return n.co.enqueue(ctx, func(tx *reachac.Tx) error {
		f, err := lookup(tx, from)
		if err != nil {
			return err
		}
		t, err := lookup(tx, to)
		if err != nil {
			return err
		}
		if err := tx.Relate(f, t, relType); err != nil {
			return err
		}
		if mutual {
			return tx.Relate(t, f, relType)
		}
		return nil
	})
}

func (n *node) Unrelate(ctx context.Context, from, to, relType string) error {
	return n.co.enqueue(ctx, func(tx *reachac.Tx) error {
		f, err := lookup(tx, from)
		if err != nil {
			return err
		}
		t, err := lookup(tx, to)
		if err != nil {
			return err
		}
		return tx.Unrelate(f, t, relType)
	})
}

func (n *node) Share(ctx context.Context, resource, owner string, paths []string) (string, error) {
	var rule string
	err := n.co.enqueue(ctx, func(tx *reachac.Tx) error {
		o, err := lookup(tx, owner)
		if err != nil {
			return err
		}
		rule, err = tx.Share(resource, o, paths...)
		return err
	})
	return rule, err
}

func (n *node) Revoke(ctx context.Context, resource, rule string) (bool, error) {
	var removed bool
	err := n.co.enqueue(ctx, func(tx *reachac.Tx) error {
		removed = tx.Revoke(resource, rule)
		return nil
	})
	return removed, err
}

func (n *node) Check(_ context.Context, resource, requester string) (httpapi.Decision, error) {
	v, err := n.net.View()
	if err != nil {
		return httpapi.Decision{}, err
	}
	defer v.Close()
	id, err := lookup(v, requester)
	if err != nil {
		return httpapi.Decision{}, err
	}
	d, err := v.CanAccess(resource, id)
	if err != nil {
		return httpapi.Decision{}, err
	}
	return httpapi.WireDecision(v, d), nil
}

func (n *node) CheckBatch(_ context.Context, resource string, requesters []string) ([]httpapi.Decision, error) {
	v, err := n.net.View()
	if err != nil {
		return nil, err
	}
	defer v.Close()
	ids := make([]reachac.UserID, len(requesters))
	for i, name := range requesters {
		if ids[i], err = lookup(v, name); err != nil {
			return nil, err
		}
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

func (n *node) Audience(_ context.Context, resource string) ([]string, []int, error) {
	v, err := n.net.View()
	if err != nil {
		return nil, nil, err
	}
	defer v.Close()
	ids, err := v.Audience(resource)
	if err != nil {
		return nil, nil, err
	}
	return namesOf(v, ids), nil, nil
}

func (n *node) Reach(_ context.Context, owner, requester, expr string) (bool, error) {
	v, err := n.net.View()
	if err != nil {
		return false, err
	}
	defer v.Close()
	oid, err := lookup(v, owner)
	if err != nil {
		return false, err
	}
	rid, err := lookup(v, requester)
	if err != nil {
		return false, err
	}
	return v.CheckPath(oid, rid, expr)
}

func (n *node) ReachAudience(_ context.Context, owner, expr string) ([]string, []int, error) {
	v, err := n.net.View()
	if err != nil {
		return nil, nil, err
	}
	defer v.Close()
	oid, err := lookup(v, owner)
	if err != nil {
		return nil, nil, err
	}
	ids, err := v.PathAudience(oid, expr)
	if err != nil {
		return nil, nil, err
	}
	return namesOf(v, ids), nil, nil
}

// Audit returns the last k retained decisions (all when k <= 0), with
// requesters named through the current snapshot; it is empty when no
// snapshot can be pinned.
func (n *node) Audit(k int) []httpapi.Decision {
	v, err := n.net.View()
	if err != nil {
		return nil
	}
	defer v.Close()
	trail := n.net.Audit()
	if k > 0 && len(trail) > k {
		trail = trail[len(trail)-k:]
	}
	out := make([]httpapi.Decision, len(trail))
	for i, d := range trail {
		out[i] = httpapi.WireDecision(v, d)
	}
	return out
}

func (n *node) Stats(context.Context) httpapi.StatsResponse {
	return httpapi.StatsResponse{
		Stats: n.net.Stats(),
		Server: httpapi.ServerStats{
			CommitGroups:       n.co.groups.Load(),
			CoalescedMutations: n.co.applied.Load(),
			QueueRejected:      n.co.rejected.Load(),
			QueueDepth:         n.co.depth(),
		},
	}
}

func (n *node) Health(context.Context) httpapi.HealthResponse {
	st := n.net.Stats()
	resp := httpapi.HealthResponse{
		Status:        "ok",
		Role:          "standalone",
		Engine:        st.Engine,
		Durable:       st.Durable,
		Users:         st.Users,
		Relationships: st.Relationships,
	}
	if st.Durable {
		resp.Role = "leader"
		rec := n.net.Recovery()
		resp.Recovery = &httpapi.Recovery{Groups: rec.Groups, TornTail: rec.TornTail, CheckpointSeq: rec.CheckpointSeq}
	}
	if n.net.Follower() {
		rs := n.net.ReplicaStatus()
		resp.Role = "follower"
		resp.Replica = &httpapi.Replica{
			Epoch:       rs.Epoch,
			Connected:   rs.Connected,
			Halted:      rs.Halted,
			AppliedSeq:  rs.AppliedSeq,
			AppliedOff:  rs.AppliedOff,
			LagBytes:    rs.LagBytes(),
			StalenessMS: time.Since(rs.LastContact).Milliseconds(),
		}
	}
	return resp
}

// Close drains nothing itself: Server.Shutdown drains the coalescer and
// checkpoints before closing the network.
func (n *node) Close() error { return n.net.Close() }
