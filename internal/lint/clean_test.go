package lint

import (
	"os"
	"testing"
	"time"
)

// TestRepoIsClean runs every analyzer over the real module tree and
// asserts zero findings. This is the tier-1 guarantee that the
// deterministic packages stay free of nondeterminism, hot-path
// allocations, unordered map iteration and uncancellable entry points,
// and that the cache-key and escape-analysis contracts (keycomplete,
// escapecheck) hold module-wide.
//
// Each analyzer runs separately under a wall-clock budget
// (DRAINVET_ANALYZER_BUDGET, a time.Duration, default 120s) so a
// quadratic blow-up in one analyzer surfaces as that analyzer's
// failure, not as an opaque package-test timeout.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type check is slow; skipped in -short")
	}
	budget := 120 * time.Second
	if s := os.Getenv("DRAINVET_ANALYZER_BUDGET"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("DRAINVET_ANALYZER_BUDGET: %v", err)
		}
		budget = d
	}

	root := moduleRoot(t)
	loadStart := time.Now()
	pkgs, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	t.Logf("load+typecheck: %v", time.Since(loadStart))

	cfg := DefaultConfig()
	for _, a := range Analyzers() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			start := time.Now()
			findings := a.Run(cfg, pkgs)
			elapsed := time.Since(start)
			t.Logf("%s: %d finding(s) in %v", a.Name, len(findings), elapsed)
			for _, f := range findings {
				t.Errorf("%s", f.String())
			}
			if len(findings) > 0 {
				t.Logf("fix the code or annotate with a reasoned //drain: directive")
			}
			if elapsed > budget {
				t.Errorf("%s took %v, over the %v per-analyzer budget (set DRAINVET_ANALYZER_BUDGET to override)", a.Name, elapsed, budget)
			}
		})
	}
}
