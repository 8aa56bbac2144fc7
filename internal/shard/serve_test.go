package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"reachac"
	"reachac/client"
	"reachac/internal/httpapi"
	"reachac/internal/server"
	"reachac/internal/shard"
)

// newTestServer serves a router over n flaky shards through the one HTTP
// serving layer, internal/server, exactly as acserverd -shards does.
func newTestServer(t *testing.T, n int) (*httptest.Server, *shard.Router, []*flakyBackend) {
	t.Helper()
	flaky := make([]*flakyBackend, n)
	backends := make([]shard.Backend, n)
	for i := range backends {
		flaky[i] = &flakyBackend{inner: shard.NewEmbedded(reachac.New())}
		backends[i] = flaky[i]
	}
	r, err := shard.New(context.Background(), backends, shard.Config{})
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	s := server.NewRouter(r, server.Config{})
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return srv, r, flaky
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func wantStatus(t *testing.T, resp *http.Response, want int) {
	t.Helper()
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, want)
	}
}

func decodeJSON[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding %s response: %v", resp.Request.URL.Path, err)
	}
	return v
}

func TestHandlerEndToEnd(t *testing.T) {
	srv, _, _ := newTestServer(t, 2)
	base := srv.URL

	for i := 0; i < 6; i++ {
		resp := postJSON(t, base+httpapi.PathUsers, httpapi.AddUserRequest{Name: fmt.Sprintf("w%d", i)})
		wantStatus(t, resp, http.StatusCreated)
		resp.Body.Close()
	}
	// Missing name and duplicate creation are client errors, not 500s.
	resp := postJSON(t, base+httpapi.PathUsers, httpapi.AddUserRequest{})
	wantStatus(t, resp, http.StatusBadRequest)
	resp.Body.Close()
	resp = postJSON(t, base+httpapi.PathUsers, httpapi.AddUserRequest{Name: "w0"})
	wantStatus(t, resp, http.StatusConflict)
	if body := decodeJSON[httpapi.ErrorBody](t, resp); body.Code != httpapi.CodeDuplicateUser {
		t.Fatalf("duplicate user code = %q", body.Code)
	}
	// An attribute of a kind the graph cannot store is the caller's error.
	resp = postJSON(t, base+httpapi.PathUsers, map[string]any{"name": "a", "attrs": map[string]any{"x": []int{1}}})
	wantStatus(t, resp, http.StatusBadRequest)
	if body := decodeJSON[httpapi.ErrorBody](t, resp); body.Code != httpapi.CodeBadRequest {
		t.Fatalf("bad attribute code = %q", body.Code)
	}

	get, err := http.Get(base + httpapi.PathUsers + "/w3")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, get, http.StatusOK)
	if u := decodeJSON[httpapi.UserResponse](t, get); u.Name != "w3" {
		t.Fatalf("GET user = %+v", u)
	}
	get, err = http.Get(base + httpapi.PathUsers + "/nobody")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, get, http.StatusNotFound)
	get.Body.Close()

	for _, e := range [][2]string{{"w0", "w1"}, {"w1", "w2"}, {"w2", "w3"}} {
		resp = postJSON(t, base+httpapi.PathRelationships, httpapi.RelateRequest{From: e[0], To: e[1], Type: "friend"})
		wantStatus(t, resp, http.StatusNoContent)
		resp.Body.Close()
	}
	resp = postJSON(t, base+httpapi.PathRelationships, httpapi.RelateRequest{From: "w0", To: "w1", Type: "friend"})
	wantStatus(t, resp, http.StatusConflict)
	resp.Body.Close()
	resp = postJSON(t, base+httpapi.PathRelationships, httpapi.RelateRequest{From: "w0"})
	wantStatus(t, resp, http.StatusBadRequest)
	resp.Body.Close()

	resp = postJSON(t, base+httpapi.PathShare, httpapi.ShareRequest{Resource: "doc", Owner: "w0", Paths: []string{"friend+[1,3]"}})
	wantStatus(t, resp, http.StatusCreated)
	share := decodeJSON[httpapi.ShareResponse](t, resp)
	resp = postJSON(t, base+httpapi.PathShare, httpapi.ShareRequest{Resource: "doc2", Owner: "w0", Paths: []string{"not a path["}})
	wantStatus(t, resp, http.StatusBadRequest)
	resp.Body.Close()

	check := func(requester string) httpapi.Decision {
		t.Helper()
		resp, err := http.Get(base + httpapi.PathCheck + "?resource=doc&requester=" + requester)
		if err != nil {
			t.Fatal(err)
		}
		wantStatus(t, resp, http.StatusOK)
		return decodeJSON[httpapi.Decision](t, resp)
	}
	if d := check("w3"); d.Effect != "allow" {
		t.Fatalf("check(w3) = %+v, want allow through the 3-hop chain", d)
	}
	if d := check("w5"); d.Effect != "deny" {
		t.Fatalf("check(w5) = %+v, want deny", d)
	}
	resp, err = http.Get(base + httpapi.PathCheck + "?resource=doc&requester=nobody")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusNotFound)
	resp.Body.Close()

	resp = postJSON(t, base+httpapi.PathCheckBatch, httpapi.CheckBatchRequest{Resource: "doc", Requesters: []string{"w1", "w5"}})
	wantStatus(t, resp, http.StatusOK)
	batch := decodeJSON[httpapi.CheckBatchResponse](t, resp)
	if len(batch.Decisions) != 2 || batch.Decisions[0].Effect != "allow" || batch.Decisions[1].Effect != "deny" {
		t.Fatalf("batch = %+v", batch.Decisions)
	}

	resp, err = http.Get(base + httpapi.PathAudience + "?resource=doc")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	if h := resp.Header.Get(httpapi.HeaderShardPartial); h != "" {
		t.Fatalf("healthy audience carries X-Shard-Partial=%q", h)
	}
	aud := decodeJSON[httpapi.UsersResponse](t, resp)
	if len(aud.Users) != 3 {
		t.Fatalf("audience = %v, want the 3 chain members", aud.Users)
	}

	resp, err = http.Get(base + httpapi.PathReach + "?owner=w0&requester=w2&path=" + "friend%2B%5B1%2C2%5D")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	if rr := decodeJSON[httpapi.ReachResponse](t, resp); !rr.Reachable {
		t.Fatalf("reach(w0→w2) = %+v, want reachable", rr)
	}
	resp, err = http.Get(base + httpapi.PathReachAudience + "?owner=w0&path=" + "friend%2B%5B1%2C2%5D")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	if ra := decodeJSON[httpapi.UsersResponse](t, resp); len(ra.Users) != 2 {
		t.Fatalf("reach-audience = %v, want [w1 w2]", ra.Users)
	}

	resp = postJSON(t, base+httpapi.PathRevoke, httpapi.RevokeRequest{Resource: "doc", Rule: share.Rule})
	wantStatus(t, resp, http.StatusOK)
	if rv := decodeJSON[httpapi.RevokeResponse](t, resp); !rv.Removed {
		t.Fatalf("revoke = %+v, want removed", rv)
	}

	resp, err = http.Get(base + httpapi.PathAudit + "?n=2")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	resp.Body.Close()
	resp, err = http.Get(base + httpapi.PathAudit + "?n=-1")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusBadRequest)
	resp.Body.Close()

	resp, err = http.Get(base + httpapi.PathHealth)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	if h := decodeJSON[httpapi.HealthResponse](t, resp); h.Status != "ok" || h.Role != "router" {
		t.Fatalf("health = %+v", h)
	}
	resp, err = http.Get(base + httpapi.PathStats)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	if st := decodeJSON[httpapi.StatsResponse](t, resp); st.Router == nil || st.Router.Shards != 2 {
		t.Fatalf("stats lacks router section: %+v", st.Router)
	}
}

func TestHandlerShardOutage(t *testing.T) {
	srv, r, flaky := newTestServer(t, 2)
	base := srv.URL
	ctx := context.Background()

	users := make([]string, 6)
	for i := range users {
		users[i] = fmt.Sprintf("w%d", i)
		if _, err := r.AddUser(ctx, users[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	chain(t, r, "friend", users[0], users[1], users[2], users[3])
	if _, err := r.Share(ctx, "doc", users[0], []string{"friend+[1,3]"}); err != nil {
		t.Fatal(err)
	}

	down := r.Owner(users[0])
	flaky[down].down.Store(true)

	// Checks through the dead shard fail closed: 503 + shard-unavailable.
	resp, err := http.Get(base + httpapi.PathCheck + "?resource=doc&requester=" + users[3])
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusServiceUnavailable)
	if body := decodeJSON[httpapi.ErrorBody](t, resp); body.Code != httpapi.CodeShardUnavailable {
		t.Fatalf("failed-closed check code = %q, want %q", body.Code, httpapi.CodeShardUnavailable)
	}
	// A Go client tells the fail-closed refusal apart from a policy deny.
	c, err := client.New(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Check(ctx, "doc", users[3]); !errors.Is(err, reachac.ErrShardUnavailable) {
		t.Fatalf("client check during outage: %v, want ErrShardUnavailable", err)
	}

	// Audiences degrade: 200 with the failed shard named in X-Shard-Partial.
	resp, err = http.Get(base + httpapi.PathAudience + "?resource=doc")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	if h := resp.Header.Get(httpapi.HeaderShardPartial); h != strconv.Itoa(down) {
		t.Fatalf("X-Shard-Partial = %q, want %q", h, strconv.Itoa(down))
	}
	resp.Body.Close()

	resp, err = http.Get(base + httpapi.PathHealth)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	if h := decodeJSON[httpapi.HealthResponse](t, resp); h.Status != "degraded" {
		t.Fatalf("health during outage = %q, want degraded", h.Status)
	}
}

// TestHandlerUnrelateAndDelegatedBatch covers the DELETE relationship route
// and the depth-1 delegation path for batch checks and audiences, where the
// router hands the whole query to the single owning backend.
func TestHandlerUnrelateAndDelegatedBatch(t *testing.T) {
	srv, r, _ := newTestServer(t, 2)
	ctx := context.Background()
	for _, u := range []string{"p0", "p1", "p2"} {
		if _, err := r.AddUser(ctx, u, nil); err != nil {
			t.Fatalf("AddUser(%s): %v", u, err)
		}
	}
	if err := r.Relate(ctx, "p0", "p1", "friend", false); err != nil {
		t.Fatal(err)
	}
	if err := r.Relate(ctx, "p0", "p2", "friend", false); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Share(ctx, "memo", "p0", []string{"friend*[1]"}); err != nil {
		t.Fatal(err)
	}

	// Depth-1 policy: the router delegates the batch and the audience to the
	// owner's backend in one call instead of scattering.
	resp := postJSON(t, srv.URL+"/v1/check-batch", map[string]any{
		"resource": "memo", "requesters": []string{"p1", "p2"},
	})
	wantStatus(t, resp, http.StatusOK)
	batch := decodeJSON[httpapi.CheckBatchResponse](t, resp)
	if len(batch.Decisions) != 2 || batch.Decisions[0].Effect != "allow" || batch.Decisions[1].Effect != "allow" {
		t.Fatalf("delegated batch = %+v", batch.Decisions)
	}
	audResp, err := http.Get(srv.URL + "/v1/audience?resource=memo")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, audResp, http.StatusOK)
	aud := decodeJSON[httpapi.UsersResponse](t, audResp)
	if len(aud.Users) != 2 {
		t.Fatalf("delegated audience = %v, want p1 and p2", aud.Users)
	}

	// DELETE the edge over the wire; the audience must shrink, and deleting
	// it again reports the unknown relationship.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/relationships",
		strings.NewReader(`{"from":"p0","to":"p1","type":"friend"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusNoContent)
	aud2, _, err := r.Audience(ctx, "memo")
	if err != nil || len(aud2) != 1 || aud2[0] != "p2" {
		t.Fatalf("audience after unrelate = %v, %v; want [p2]", aud2, err)
	}
	req, err = http.NewRequest(http.MethodDelete, srv.URL+"/v1/relationships",
		strings.NewReader(`{"from":"p0","to":"p1","type":"friend"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusNotFound)
}
