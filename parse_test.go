package reachac

import (
	"testing"
	"time"
)

// TestParseEngineKind covers the engine-flag vocabulary every daemon and
// benchmark shares: each canonical name, each shorthand, and rejection.
func TestParseEngineKind(t *testing.T) {
	cases := []struct {
		name string
		want EngineKind
	}{
		{"online-bfs", Online},
		{"online-dfs", OnlineDFS},
		{"online-adaptive", OnlineAdaptive},
		{"closure", Closure},
		{"join-index", Index},
		{"join-index-paper", IndexPaperJoin},
		{"online", Online},
		{"index", Index},
		{"index-paper", IndexPaperJoin},
	}
	for _, tc := range cases {
		got, err := ParseEngineKind(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParseEngineKind(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "planner", "warp-drive", "Online"} {
		if _, err := ParseEngineKind(bad); err == nil {
			t.Errorf("ParseEngineKind(%q) accepted", bad)
		}
	}
}

// TestParseSyncPolicy covers the -sync vocabulary: each name yields the
// option selecting that policy (with the cadence under "interval"), and an
// unknown name is an error.
func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		name     string
		want     SyncPolicy
		interval time.Duration
	}{
		{"always", SyncAlways, 0},
		{"interval", SyncInterval, 7 * time.Millisecond},
		{"never", SyncNever, 0},
	}
	for _, tc := range cases {
		opt, err := ParseSyncPolicy(tc.name, 7*time.Millisecond)
		if err != nil {
			t.Fatalf("ParseSyncPolicy(%q): %v", tc.name, err)
		}
		cfg := openConfig{sync: -1}
		opt(&cfg)
		if cfg.sync != tc.want || cfg.syncInterval != tc.interval {
			t.Errorf("ParseSyncPolicy(%q) set sync=%v interval=%v; want %v, %v",
				tc.name, cfg.sync, cfg.syncInterval, tc.want, tc.interval)
		}
	}
	if _, err := ParseSyncPolicy("sometimes", time.Second); err == nil {
		t.Error("ParseSyncPolicy accepted an unknown policy")
	}
}
