package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/serial"
)

func postJSON(t *testing.T, ts *httptest.Server, path string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestServedMechanismProperties solves randomly generated small grids
// through the live HTTP surface and asserts the serving invariants the
// paper's guarantee rests on: every served mechanism satisfies the full
// Geo-I constraint set within 1e-9, every row is a probability
// distribution within 1e-9, and every obfuscated location in a batched
// response lands on a valid road interval of the requested network.
func TestServedMechanismProperties(t *testing.T) {
	srv := New(context.Background(), Config{CacheSize: 8, SolvePool: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 3; trial++ {
		g := roadnet.Grid(rng, roadnet.GridConfig{
			Rows: 2, Cols: 2 + trial%2, Spacing: 0.25 + 0.1*rng.Float64(),
			OneWayFrac: 0.5 * rng.Float64(), WeightJitter: 0.1,
		})
		spec := serial.SolveSpec{
			Network: serial.FromGraph(g),
			Delta:   0.15 + 0.1*rng.Float64(),
			Epsilon: 2 + 6*rng.Float64(),
		}

		resp, body := postJSON(t, ts, "/solve", &spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trial %d: /solve status %d: %s", trial, resp.StatusCode, body)
		}
		var sr serial.SolveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Key != spec.Digest() {
			t.Fatalf("trial %d: served key %s, want spec digest %s", trial, sr.Key, spec.Digest())
		}

		e, ok := srv.cache.get(sr.Key)
		if !ok {
			t.Fatalf("trial %d: solved mechanism not cached", trial)
		}
		if v := e.prob.GeoIViolation(e.mech); v > 1e-9 {
			t.Errorf("trial %d: served mechanism violates Geo-I by %g", trial, v)
		}
		k := e.mech.K()
		for i := 0; i < k; i++ {
			sum := 0.0
			for _, p := range e.mech.Row(i) {
				if p < 0 {
					t.Fatalf("trial %d: negative probability in row %d", trial, i)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("trial %d: row %d sums to %v", trial, i, sum)
			}
		}

		// Batched obfuscation must stay on the network.
		req := serial.ObfuscateRequest{SolveSpec: spec}
		for j := 0; j < 32; j++ {
			road := rng.Intn(g.NumEdges())
			w := g.Edge(roadnet.EdgeID(road)).Weight
			req.Locations = append(req.Locations, serial.Loc{Road: road, FromStart: rng.Float64() * w})
		}
		resp, body = postJSON(t, ts, "/obfuscate", &req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trial %d: /obfuscate status %d: %s", trial, resp.StatusCode, body)
		}
		var or serial.ObfuscateResponse
		if err := json.Unmarshal(body, &or); err != nil {
			t.Fatal(err)
		}
		if !or.Cached {
			t.Errorf("trial %d: obfuscate after solve should hit the cache", trial)
		}
		if len(or.Locations) != len(req.Locations) {
			t.Fatalf("trial %d: got %d obfuscated locations, want %d", trial, len(or.Locations), len(req.Locations))
		}
		for j, loc := range or.Locations {
			if loc.Road < 0 || loc.Road >= g.NumEdges() {
				t.Fatalf("trial %d: response %d road %d out of range", trial, j, loc.Road)
			}
			w := g.Edge(roadnet.EdgeID(loc.Road)).Weight
			if math.IsNaN(loc.FromStart) || loc.FromStart < 0 || loc.FromStart > w+1e-12 {
				t.Fatalf("trial %d: response %d from_start %v outside road of length %v", trial, j, loc.FromStart, w)
			}
			inner := roadnet.LocationFromStart(g, roadnet.EdgeID(loc.Road), loc.FromStart)
			if !inner.Valid(g) {
				t.Fatalf("trial %d: response %d is not a valid network location", trial, j)
			}
		}
	}

	// The trials above share the server; hits+misses must account for
	// exactly one solve per distinct spec.
	snap := srv.Stats()
	if snap.Solves != 3 {
		t.Errorf("expected 3 solves for 3 distinct specs, got %d", snap.Solves)
	}
	if snap.CacheHits < 3 {
		t.Errorf("expected at least one cache hit per obfuscate call, got %d", snap.CacheHits)
	}
}

// TestObfuscatePreservesRelativePosition checks the paper's Step-II
// contract end to end: the obfuscated point keeps the true point's
// relative position within its interval, so a point at an interval
// boundary maps to an interval boundary.
func TestObfuscatePreservesRelativePosition(t *testing.T) {
	srv := New(context.Background(), Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(17))
	g := roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 2, Spacing: 0.3})
	spec := serial.SolveSpec{Network: serial.FromGraph(g), Delta: 0.3, Epsilon: 5}

	// With delta == spacing every edge is a single interval, so the
	// relative location within the interval is FromStart measured from
	// the interval end — verify obfuscated offsets stay within edges.
	req := serial.ObfuscateRequest{SolveSpec: spec}
	for road := 0; road < g.NumEdges(); road++ {
		req.Locations = append(req.Locations, serial.Loc{Road: road, FromStart: 0})
	}
	resp, body := postJSON(t, ts, "/obfuscate", &req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/obfuscate status %d: %s", resp.StatusCode, body)
	}
	var or serial.ObfuscateResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	// Every truth sits at FromStart = 0 — a full interval length from its
	// interval end. All intervals here are whole equal-length edges, so a
	// preserved relative position forces FromStart = 0 in the response.
	for j, loc := range or.Locations {
		if loc.FromStart > 1e-9 {
			t.Fatalf("location %d: relative position not preserved, from_start %v", j, loc.FromStart)
		}
	}
}
