package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"reachac"
	"reachac/client"
	"reachac/internal/httpapi"
)

// fakeServer answers every request with one canned error response.
func fakeServer(t *testing.T, status int, body httpapi.ErrorBody, retryAfter string) *client.Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = writeJSON(w, body)
	}))
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func writeJSON(w http.ResponseWriter, v httpapi.ErrorBody) error {
	_, err := w.Write([]byte(`{"error":"` + v.Error + `","code":"` + v.Code + `"}`))
	return err
}

// TestErrorMapping pins that wire codes come back as the facade's sentinel
// errors under errors.Is, the whole point of the typed client.
func TestErrorMapping(t *testing.T) {
	cases := []struct {
		code     string
		status   int
		sentinel error
	}{
		{httpapi.CodeUnknownUser, http.StatusNotFound, reachac.ErrUnknownUser},
		{httpapi.CodeDuplicateUser, http.StatusConflict, reachac.ErrDuplicateUser},
		{httpapi.CodeUnknownResource, http.StatusNotFound, reachac.ErrUnknownResource},
		{httpapi.CodeUnknownRelationship, http.StatusNotFound, reachac.ErrUnknownRelationship},
		{httpapi.CodeDuplicateRelationship, http.StatusConflict, reachac.ErrDuplicateRelationship},
		{httpapi.CodeSelfRelationship, http.StatusBadRequest, reachac.ErrSelfRelationship},
		{httpapi.CodeResourceOwned, http.StatusConflict, reachac.ErrResourceOwned},
		{httpapi.CodeReadOnly, http.StatusServiceUnavailable, reachac.ErrReadOnly},
		{httpapi.CodeClosed, http.StatusServiceUnavailable, reachac.ErrClosed},
		{httpapi.CodeShardUnavailable, http.StatusServiceUnavailable, reachac.ErrShardUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.code, func(t *testing.T) {
			c := fakeServer(t, tc.status, httpapi.ErrorBody{Error: "nope", Code: tc.code}, "")
			_, err := c.Check(context.Background(), "r", "u")
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("code %q: errors.Is(%v, %v) = false", tc.code, err, tc.sentinel)
			}
			var apiErr *client.Error
			if !errors.As(err, &apiErr) || apiErr.Status != tc.status || apiErr.Message != "nope" {
				t.Fatalf("As(*client.Error) = %+v", apiErr)
			}
			// No cross-talk: a code must match only its own sentinel.
			for _, other := range cases {
				if other.sentinel != tc.sentinel && errors.Is(err, other.sentinel) {
					t.Fatalf("code %q also matched %v", tc.code, other.sentinel)
				}
			}
		})
	}
}

// TestOverloadedMapping pins the load-shedding contract: 503 + code
// overloaded is client.ErrOverloaded carrying the Retry-After hint.
func TestOverloadedMapping(t *testing.T) {
	c := fakeServer(t, http.StatusServiceUnavailable,
		httpapi.ErrorBody{Error: "queue full", Code: httpapi.CodeOverloaded}, "2")
	err := c.Relate(context.Background(), "a", "b", "friend")
	if !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("errors.Is(ErrOverloaded) = false for %v", err)
	}
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.RetryAfter != 2*time.Second {
		t.Fatalf("Retry-After not surfaced: %+v", apiErr)
	}
}

// TestBadAddress pins New's address validation and normalization.
func TestBadAddress(t *testing.T) {
	if _, err := client.New("://nope"); err == nil {
		t.Fatal("malformed address accepted")
	}
	if _, err := client.New(""); err == nil {
		t.Fatal("empty address accepted")
	}
	if _, err := client.New("localhost:8708"); err != nil {
		t.Fatalf("bare host:port rejected: %v", err)
	}
	c, err := client.New("localhost:8708/")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.BaseURL(); got != "http://localhost:8708" {
		t.Fatalf("BaseURL = %q, want normalized http://localhost:8708", got)
	}
}
