package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/roadnet"
	"repro/internal/serial"
)

// samplerServer returns a default server whose solver serves the
// exponential mechanism of a 3×3 grid at δ 0.1, ε 3 (K=72), with the
// spec that reaches it and the mechanism itself.
func samplerServer(t *testing.T) (*Server, *serial.SolveSpec, *core.Mechanism) {
	t.Helper()
	g := roadnet.Grid(rand.New(rand.NewSource(3)), roadnet.GridConfig{Rows: 3, Cols: 3, Spacing: 0.3})
	part, err := discretize.New(g, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.NewProblem(part, core.Config{Epsilon: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := pr.ExponentialMechanism()
	if m.K() != 72 {
		t.Fatalf("K = %d, want 72", m.K())
	}
	srv := New(context.Background(), Config{})
	srv.solveFn = func(ctx context.Context, spec *serial.SolveSpec) (*entry, error) {
		return srv.newEntry(pr, m, 0, 0, serial.QualityOptimal), nil
	}
	return srv, &serial.SolveSpec{Network: serial.FromGraph(g), Delta: 0.1, Epsilon: 3}, m
}

// obfuscateIntervals posts n copies of interval i's midpoint to
// /obfuscate and returns the interval of each served location.
func obfuscateIntervals(h http.Handler, spec *serial.SolveSpec, m *core.Mechanism, i, n int) ([]int, error) {
	g := m.Part.G
	truth := m.Part.WithRelativeLoc(i, m.Part.Intervals[i].Length()/2)
	req := serial.ObfuscateRequest{SolveSpec: *spec}
	for range n {
		req.Locations = append(req.Locations, serial.Loc{Road: int(truth.Edge), FromStart: truth.FromStart(g)})
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/obfuscate", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/obfuscate answered %d: %s", rec.Code, rec.Body)
	}
	var resp serial.ObfuscateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return nil, err
	}
	out := make([]int, len(resp.Locations))
	for j, l := range resp.Locations {
		out[j] = m.Part.Locate(roadnet.LocationFromStart(g, roadnet.EdgeID(l.Road), l.FromStart))
	}
	return out, nil
}

// TestSamplerResistsSeedReplay replays the attack on a guessable
// sampler stream: an observer who knows the uniform behind each report
// knows the served interval's position in the true row's CDF. A server
// that seeds its n-th mechanism's math/rand stream with Seed+n and a
// default Seed of 1 draws its first mechanism's samples from
// rand.NewSource(2), so the observer predicts each report by passing
// the next draw of that stream through the true row. Every prediction
// p hits with probability Z[i,p] when the draws are secret; the test
// fails when the hits exceed that chance by more than 5σ.
func TestSamplerResistsSeedReplay(t *testing.T) {
	srv, spec, m := samplerServer(t)
	h := srv.Handler()
	const reports, i = 400, 0
	replay := rand.New(rand.NewSource(2))
	hits, chance, variance := 0, 0.0, 0.0
	for range reports {
		got, err := obfuscateIntervals(h, spec, m, i, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := m.SampleInterval(replay, i)
		if got[0] == p {
			hits++
		}
		z := m.Prob(i, p)
		chance += z
		variance += z * (1 - z)
	}
	bound := chance + 5*math.Sqrt(variance)
	t.Logf("replay predicted %d of %d reports; chance %.1f, bound %.1f", hits, reports, chance, bound)
	if float64(hits) > bound {
		t.Fatalf("a replayed seed stream predicts %d of %d served intervals (chance %.1f, bound %.1f)", hits, reports, chance, bound)
	}
}

// TestSamplerServedDistribution has concurrent clients sample one
// cached digest through the pooled generators: the served intervals
// must follow the true row of Z, and /stats must count every location
// served.
func TestSamplerServedDistribution(t *testing.T) {
	srv, spec, m := samplerServer(t)
	h := srv.Handler()
	warm, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if code, key := serveBody(h, "/solve", warm); code != http.StatusOK || key != spec.Digest() {
		t.Fatalf("/solve answered %d key %q", code, key)
	}

	const clients, batches, batch, i = 8, 15, 256, 7
	counts := make([][]int, clients)
	var wg sync.WaitGroup
	for c := range counts {
		counts[c] = make([]int, m.K())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range batches {
				got, err := obfuscateIntervals(h, spec, m, i, batch)
				if err != nil {
					t.Error(err)
					return
				}
				for _, l := range got {
					counts[c][l]++
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	const total = clients * batches * batch
	for l := range m.K() {
		n := 0
		for c := range counts {
			n += counts[c][l]
		}
		if got, want := float64(n)/total, m.Prob(i, l); math.Abs(got-want) > 0.015 {
			t.Errorf("served P(%d|%d) = %.4f over %d samples, mechanism %.4f", l, i, got, total, want)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var snap StatsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Mechanisms) != 1 || snap.Mechanisms[0].Key != spec.Digest() {
		t.Fatalf("/stats lists mechanisms %+v, want only %s", snap.Mechanisms, spec.Digest())
	}
	if served := snap.Mechanisms[0].Served; served != total {
		t.Fatalf("/stats served = %d, want %d", served, total)
	}
}
