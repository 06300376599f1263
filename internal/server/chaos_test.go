package server

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/lp"
	"repro/internal/roadnet"
	"repro/internal/serial"
)

// TestChaos is the fault-injection acceptance suite (run under -race by
// ci.sh): with failures armed at every solver site — master, pricing and
// the IPM — concurrent clients must still get HTTP 200 responses backed
// by mechanisms that satisfy the full (ε, r)-Geo-I constraint set within
// 1e-9, each honestly labelled with its degradation tier. The faults are
// process-global, so the subtests must not run in parallel.
func TestChaos(t *testing.T) {
	chaosErr := errors.New("chaos: injected failure")
	cases := []struct {
		name string
		site string
		// fault is armed for the whole subtest (Times 0 = every visit).
		fault faultinject.Fault
		// deadline, when positive, sets the per-solve deadline.
		deadline time.Duration
		// tiers is the set of acceptable quality labels.
		tiers map[string]bool
	}{
		{
			name: "master error", site: core.FaultSiteCGMaster,
			fault: faultinject.Fault{Err: chaosErr},
			tiers: map[string]bool{serial.QualityFallback: true},
		},
		{
			name: "master panic", site: core.FaultSiteCGMaster,
			fault: faultinject.Fault{Panic: "chaos: injected panic"},
			tiers: map[string]bool{serial.QualityFallback: true},
		},
		{
			name: "pricing error", site: core.FaultSiteCGPricing,
			fault: faultinject.Fault{Err: chaosErr},
			tiers: map[string]bool{serial.QualityFallback: true},
		},
		{
			name: "pricing panic", site: core.FaultSiteCGPricing,
			fault: faultinject.Fault{Panic: "chaos: injected panic"},
			tiers: map[string]bool{serial.QualityFallback: true},
		},
		{
			name: "ipm error", site: lp.FaultSiteIPM,
			fault: faultinject.Fault{Err: chaosErr},
			tiers: map[string]bool{serial.QualityFallback: true},
		},
		{
			name: "pricing stall against deadline", site: core.FaultSiteCGPricing,
			fault:    faultinject.Fault{Delay: 500 * time.Millisecond},
			deadline: 150 * time.Millisecond,
			// The first master round usually completes before the stall, so
			// the incumbent rung is expected; a slow scheduler may cancel
			// earlier and land on the fallback. Both are acceptable — what
			// is not is an error or an optimal label.
			tiers: map[string]bool{serial.QualityIncumbent: true, serial.QualityFallback: true},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer faultinject.Reset()
			faultinject.Set(tc.site, tc.fault)

			srv := New(context.Background(), Config{
				CacheSize:      8,
				SolvePool:      4,
				SolveDeadline:  tc.deadline,
				DisableUpgrade: true, // upgrades would re-solve under the same fault
			})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			rng := rand.New(rand.NewSource(13))
			g := roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 2, Spacing: 0.3})
			net := serial.FromGraph(g)
			specs := []*serial.SolveSpec{
				{Network: net, Delta: 0.3, Epsilon: 3},
				{Network: net, Delta: 0.3, Epsilon: 5},
			}

			const clients = 8
			type outcome struct {
				status  int
				quality string
				body    string
			}
			outcomes := make(chan outcome, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					req := serial.ObfuscateRequest{
						SolveSpec: *specs[c%len(specs)],
						Locations: []serial.Loc{{Road: c % g.NumEdges(), FromStart: 0}},
					}
					status, body := postJSONB(t, ts, "/obfuscate", req)
					var or serial.ObfuscateResponse
					_ = json.Unmarshal([]byte(body), &or)
					outcomes <- outcome{status: status, quality: or.Quality, body: body}
				}(c)
			}
			wg.Wait()
			close(outcomes)

			for o := range outcomes {
				if o.status != http.StatusOK {
					t.Fatalf("chaos response status %d: %s", o.status, o.body)
				}
				if !tc.tiers[o.quality] {
					t.Errorf("chaos response quality %q, want one of %v", o.quality, tc.tiers)
				}
			}

			// Every mechanism the chaos run banked must uphold the full
			// privacy guarantee — degraded means slower to converge on
			// quality loss, never leakier.
			entries := srv.cache.entries()
			if len(entries) == 0 {
				t.Fatal("chaos run cached no mechanisms")
			}
			for _, e := range entries {
				assertServable(t, e)
				if !tc.tiers[e.tier] {
					t.Errorf("cached entry tier %q, want one of %v", e.tier, tc.tiers)
				}
			}

			snap := srv.Stats()
			if snap.DegradedServes == 0 {
				t.Error("degraded_serves counter never moved under injected faults")
			}
			switch {
			case tc.fault.Panic != nil && snap.PanicRecoveries == 0:
				t.Error("panic_recoveries counter never moved under an injected panic")
			case tc.deadline > 0 && snap.CancelledSolves == 0:
				t.Error("cancelled_solves counter never moved under a deadline stall")
			}
		})
	}
}

// TestChaosAbandonment: when every waiting client gives up, the detached
// solve is cancelled (not leaked) and the ladder still banks a degraded
// entry into the cache for the next request.
func TestChaosAbandonment(t *testing.T) {
	defer faultinject.Reset()
	// A long pricing stall guarantees the clients' deadlines fire first.
	faultinject.Set(core.FaultSiteCGPricing, faultinject.Fault{Delay: 400 * time.Millisecond})

	srv := New(context.Background(), Config{DisableUpgrade: true, SolveWait: 80 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := testSpecs(t, 1)[0]
	if code, _ := postJSONB(t, ts, "/solve", spec); code != http.StatusGatewayTimeout {
		t.Fatalf("abandoning client got %d, want 504", code)
	}

	// The abandoned solve's incumbent (or fallback) lands in the cache.
	waitFor(t, 5*time.Second, func() bool {
		_, ok := srv.cache.get(spec.Digest())
		return ok
	})
	e, _ := srv.cache.get(spec.Digest())
	if e.tier == serial.QualityOptimal {
		t.Fatalf("abandoned solve claims the optimal tier")
	}
	assertServable(t, e)

	// The next client is served instantly from the banked entry.
	faultinject.Reset()
	code, body := postJSONB(t, ts, "/solve", spec)
	if code != http.StatusOK {
		t.Fatalf("post-abandonment request got %d: %s", code, body)
	}
	var sr serial.SolveResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Cached || !(sr.Quality == serial.QualityIncumbent || sr.Quality == serial.QualityFallback) {
		t.Fatalf("post-abandonment response cached=%v quality=%q", sr.Cached, sr.Quality)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
