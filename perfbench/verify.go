package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"reachac"
	"reachac/internal/graph"
	"reachac/internal/workload"
)

// oracleKind is the engine the correctness pass compares against: the
// cluster-based join index shares no evaluation code with the flat
// product-BFS that serves every workload.
const oracleKind = reachac.Index

// verdict is the outcome of a correctness pass.
type verdict struct {
	checks, batchDecisions, audiences, members int
	mismatches                                 []string
}

func (v *verdict) mismatch(format string, args ...any) {
	if len(v.mismatches) < 20 {
		v.mismatches = append(v.mismatches, fmt.Sprintf(format, args...))
	}
}

// sampleOps draws the correctness sample: checks, batches and audiences
// from a generator of its own, whose requesters are mostly within reach of
// the resource owner so that both allows and denies are tested.
func sampleOps(st *stack, n int) []workload.Op {
	gen := workload.NewGenerator(st.g, workload.Mix{Check: 0.80, CheckBatch: 0.15, Audience: 0.05},
		workload.GenConfig{Resources: st.specs}, st.seed+104729)
	ops := make([]workload.Op, n)
	for i := range ops {
		ops[i] = gen.Next()
	}
	return ops
}

// answers are the decisions one engine gave for a sample: per operation,
// the allow bits of its requesters, or the sorted audience.
type answers [][]graph.NodeID

const allowBit = graph.NodeID(1)

// verify answers a sample of checks, batches and audiences on the
// quiesced end state through the workload's serving path, then again
// through an independent engine over the same state, and reports every
// disagreement. For the HTTP workload the oracle is an embedded network
// recovered from the server's data directory after shutdown.
func verify(st *stack, samples int) (verdict, error) {
	ops := sampleOps(st, samples)
	served, err := st.answer(ops)
	if err != nil {
		return verdict{}, fmt.Errorf("serving path: %w", err)
	}
	var oracle *reachac.Network
	if st.plain != nil {
		if err := st.stopServing(); err != nil {
			return verdict{}, err
		}
		if oracle, err = reachac.Open(st.dir, reachac.WithEngine(oracleKind), reachac.WithSync(reachac.SyncNever)); err != nil {
			return verdict{}, fmt.Errorf("recovering the served state: %w", err)
		}
		defer oracle.Close()
	} else {
		var pol bytes.Buffer
		if err := st.net.SavePolicies(&pol); err != nil {
			return verdict{}, err
		}
		oracle = reachac.FromGraph(st.net.Graph().Clone())
		if err := oracle.LoadPolicies(&pol); err != nil {
			return verdict{}, err
		}
		if err := oracle.UseEngine(oracleKind); err != nil {
			return verdict{}, err
		}
	}
	want, err := (&stack{specs: st.specs, net: oracle}).answer(ops)
	if err != nil {
		return verdict{}, fmt.Errorf("oracle: %w", err)
	}

	var v verdict
	rng := rand.New(rand.NewSource(st.seed))
	for i, op := range ops {
		res := st.specs[op.Resource].Name
		switch op.Kind {
		case workload.OpCheck:
			v.checks++
			if !slices.Equal(served[i], want[i]) {
				v.mismatch("check %s by %s: served %v, oracle %v", res, name(op.Requester), served[i], want[i])
			}
		case workload.OpCheckBatch:
			v.batchDecisions += len(op.Requesters)
			if !slices.Equal(served[i], want[i]) {
				v.mismatch("batch %s: served %v, oracle %v", res, served[i], want[i])
			}
		case workload.OpAudience:
			v.audiences++
			if !slices.Equal(served[i], want[i]) {
				v.mismatch("audience %s: served %d members, oracle %d", res, len(served[i]), len(want[i]))
			}
			// The audience cache answers both sides; cross-check its
			// members and non-members against the oracle's point checks.
			for _, m := range probes(served[i], st.specs[op.Resource].Owner, oracle.NumUsers(), rng) {
				d, err := oracle.CanAccess(res, m.id)
				if err != nil {
					return v, err
				}
				v.members++
				if (d.Effect == reachac.Allow) != m.member {
					v.mismatch("audience %s: %s member=%v, oracle says %s", res, name(m.id), m.member, d.Effect)
				}
			}
		}
	}
	return v, nil
}

type probe struct {
	id     graph.NodeID
	member bool
}

// probes picks up to 24 audience members and 24 non-members to check.
func probes(audience []graph.NodeID, owner graph.NodeID, users int, rng *rand.Rand) []probe {
	var out []probe
	step := max(1, len(audience)/24)
	for i := 0; i < len(audience); i += step {
		out = append(out, probe{audience[i], true})
	}
	for tries := 0; tries < 200 && len(out) < 48; tries++ {
		id := graph.NodeID(rng.Intn(users))
		if _, found := slices.BinarySearch(audience, id); !found && id != owner {
			out = append(out, probe{id, false})
		}
	}
	return out
}

// answer evaluates the read operations of ops through the stack's serving
// path; writes are skipped.
func (st *stack) answer(ops []workload.Op) (answers, error) {
	ctx := context.Background()
	out := make(answers, len(ops))
	for i, op := range ops {
		res := st.specs[op.Resource].Name
		switch op.Kind {
		case workload.OpCheck:
			allowed, err := st.check(ctx, res, op.Requester)
			if err != nil {
				return nil, err
			}
			if allowed {
				out[i] = []graph.NodeID{allowBit}
			}
		case workload.OpCheckBatch:
			bits, err := st.checkBatch(ctx, res, op.Requesters)
			if err != nil {
				return nil, err
			}
			out[i] = bits
		case workload.OpAudience:
			members, err := st.audience(ctx, res)
			if err != nil {
				return nil, err
			}
			slices.Sort(members)
			out[i] = members
		}
	}
	return out, nil
}

func (st *stack) check(ctx context.Context, res string, req graph.NodeID) (bool, error) {
	if st.plain != nil {
		d, err := st.plain.Check(ctx, res, name(req))
		return d.Effect == reachac.Allow.String(), err
	}
	d, err := st.net.CanAccess(res, req)
	return d.Effect == reachac.Allow, err
}

func (st *stack) checkBatch(ctx context.Context, res string, reqs []graph.NodeID) ([]graph.NodeID, error) {
	bits := make([]graph.NodeID, len(reqs))
	if st.plain != nil {
		ds, err := st.plain.CheckBatch(ctx, res, names(reqs))
		for i := range ds {
			if ds[i].Effect == reachac.Allow.String() {
				bits[i] = allowBit
			}
		}
		return bits, err
	}
	ds, err := st.net.CanAccessAll(res, reqs)
	for i := range ds {
		if ds[i].Effect == reachac.Allow {
			bits[i] = allowBit
		}
	}
	return bits, err
}

func (st *stack) audience(ctx context.Context, res string) ([]graph.NodeID, error) {
	if st.plain != nil {
		members, err := st.plain.Audience(ctx, res)
		if err != nil {
			return nil, err
		}
		ids := make([]graph.NodeID, len(members))
		for i, m := range members {
			id, err := strconv.Atoi(m[1:])
			if err != nil {
				return nil, fmt.Errorf("audience member %q is not a generated name", m)
			}
			ids[i] = graph.NodeID(id)
		}
		return ids, nil
	}
	return st.net.Audience(res)
}
