package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serial"
	"repro/internal/store"
)

// fingerprint hashes everything a workload would send.
func fingerprint(t *testing.T, w *workload) string {
	t.Helper()
	h := sha256.New()
	for _, pool := range w.Bodies {
		for _, b := range pool {
			h.Write(b)
		}
	}
	plans := append([][]shot{w.Warm, w.Measure, w.Reads}, w.Ladder...)
	for _, p := range plans {
		fmt.Fprintf(h, "%v\n", p)
	}
	for _, s := range append(append([]*serial.SolveSpec(nil), w.Served...), w.Sequence...) {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSameSeedSameInputs(t *testing.T) {
	for name := range workloads {
		a, err := buildWorkload(name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildWorkload(name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildWorkload(name, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if fa, fb := fingerprint(t, a), fingerprint(t, b); fa != fb {
			t.Errorf("%s: seed 7 built twice differs: %s vs %s", name, fa, fb)
		}
		if fingerprint(t, a) == fingerprint(t, c) {
			t.Errorf("%s: seeds 7 and 8 built identical inputs", name)
		}
		if len(a.Served) != len(workloads[name].eps) || len(a.Measure) == 0 || len(a.Ladder) != len(workloads[name].ladder) {
			t.Errorf("%s: workload shape %d digests, %d measured, %d ladder steps", name, len(a.Served), len(a.Measure), len(a.Ladder))
		}
		if !workloads[name].beside && len(a.Sequence) != probeSpecs {
			t.Errorf("%s: %d sequence specs, want %d", name, len(a.Sequence), probeSpecs)
		}
	}
}

func TestSequenceIsFreshAndStratified(t *testing.T) {
	w, err := buildWorkload("solve-mix", 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	eps := make([]float64, len(w.Sequence))
	for i, s := range w.Sequence {
		if seen[s.Digest()] {
			t.Fatalf("spec %d repeats a digest", i)
		}
		seen[s.Digest()] = true
		eps[i] = s.Epsilon
	}
	sort.Float64s(eps)
	width := (seqEps[1] - seqEps[0]) / float64(len(eps))
	for i, e := range eps {
		if lo := seqEps[0] + float64(i)*width; e < lo || e > lo+width {
			t.Errorf("ε %v is not in stratum %d [%v, %v]", e, i, lo, lo+width)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	for _, c := range []struct {
		n         int
		p50, pct  float64
		tail      float64
		tailValid bool
	}{
		{n: 1000, p50: 500, pct: 99, tail: 990, tailValid: true},
		{n: 10000, p50: 5000, pct: 99.9, tail: 9990, tailValid: true},
		{n: 100, p50: 50, pct: 90, tail: 90, tailValid: true},
		{n: 999, p50: 500, pct: 95, tail: 950, tailValid: true},
		{n: 9, p50: 5},
	} {
		s := summarize(seq(c.n))
		if s.N != c.n || s.P50 != c.p50 {
			t.Errorf("n=%d: got N=%d P50=%v, want P50=%v", c.n, s.N, s.P50, c.p50)
		}
		if !c.tailValid {
			if s.TailPct != 0 {
				t.Errorf("n=%d: reported p%v with fewer than %d samples beyond", c.n, s.TailPct, minBeyond)
			}
			continue
		}
		if s.TailPct != c.pct || s.Tail != c.tail {
			t.Errorf("n=%d: got p%v=%v, want p%v=%v", c.n, s.TailPct, s.Tail, c.pct, c.tail)
		}
		if beyond := c.n - nearestRank(c.n, s.TailPct); beyond < minBeyond {
			t.Errorf("n=%d: p%v has %d samples beyond it", c.n, s.TailPct, beyond)
		}
	}
}

// stallPhase sends one arrival a millisecond on one connection to a
// server that holds request stallAt for stall, and closes stop (when
// not nil) after stopAfter.
func stallPhase(t *testing.T, stallAt int64, stall time.Duration, stop chan struct{}, stopAfter time.Duration) phase {
	t.Helper()
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusServiceUnavailable) // no body to check
	}))
	defer ts.Close()
	w := &workload{Conns: 1, Bodies: [][][]byte{{[]byte("{}")}}}
	plan := make([]shot, 4000)
	for i := range plan {
		plan[i] = shot{At: time.Duration(i) * time.Millisecond}
	}
	if stop != nil {
		time.AfterFunc(stopAfter, func() { close(stop) })
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	return openLoop(context.Background(), c, ts.URL, "t", 1000, w, plan, newChecker(nil), stop, nil)
}

func TestStalledPhaseIsInvalid(t *testing.T) {
	// A stall longer than maxBacklog early in the phase: the arrivals
	// sent before it have no lag, so only the abandonment shows it.
	p := stallPhase(t, 300, maxBacklog+300*time.Millisecond, nil, 0)
	if !p.Abandoned || !p.lagGrowing(p99Limit) || p.count().Skipped == 0 {
		t.Errorf("stalled phase: abandoned=%t growing=%t skipped=%d", p.Abandoned, p.lagGrowing(p99Limit), p.count().Skipped)
	}
	// A phase cut by its stop channel skips arrivals but is not stalled.
	p = stallPhase(t, -1, 0, make(chan struct{}), 500*time.Millisecond)
	if p.Abandoned || p.lagGrowing(p99Limit) || p.count().Skipped == 0 {
		t.Errorf("stopped phase: abandoned=%t growing=%t skipped=%d", p.Abandoned, p.lagGrowing(p99Limit), p.count().Skipped)
	}
}

func TestObfuscateCheckCatchesDoctoredAnswers(t *testing.T) {
	w, err := buildWorkload("fleet-tick", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	net := w.Served[0].Network
	key := w.Served[0].Digest()
	good := func() *serial.ObfuscateResponse {
		r := &serial.ObfuscateResponse{Key: key, Quality: serial.QualityOptimal}
		for i := range net.Edges {
			r.Locations = append(r.Locations, serial.Loc{Road: i, FromStart: net.Edges[i].Weight / 2})
		}
		return r
	}
	n := len(net.Edges)
	if err := checkObfuscate(net, key, n, good()); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	for name, doctor := range map[string]func(*serial.ObfuscateResponse){
		"past road end":   func(r *serial.ObfuscateResponse) { r.Locations[3].FromStart = net.Edges[3].Weight * 1.01 },
		"negative offset": func(r *serial.ObfuscateResponse) { r.Locations[0].FromStart = -1e-3 },
		"no such road":    func(r *serial.ObfuscateResponse) { r.Locations[1].Road = n },
		"wrong key":       func(r *serial.ObfuscateResponse) { r.Key = w.Served[1].Digest() },
		"dropped one":     func(r *serial.ObfuscateResponse) { r.Locations = r.Locations[1:] },
		"unknown tier":    func(r *serial.ObfuscateResponse) { r.Quality = "best-effort" },
	} {
		r := good()
		doctor(r)
		if err := checkObfuscate(net, key, n, r); err == nil {
			t.Errorf("%s: doctored answer passed the check", name)
		}
	}

	spec := w.Served[0]
	ok := &serial.SolveResponse{Key: key, K: 48, ETDD: 0.3, Bound: 0.2, Quality: serial.QualityOptimal}
	if err := checkSolve(spec, ok); err != nil {
		t.Fatalf("valid /solve rejected: %v", err)
	}
	low := *ok
	low.ETDD = 0.1
	if checkSolve(spec, &low) == nil {
		t.Error("/solve with ETDD below its bound passed the check")
	}
	other := *ok
	other.Key = w.Served[1].Digest()
	if checkSolve(spec, &other) == nil {
		t.Error("/solve with another spec's key passed the check")
	}
}

// solvedEntry solves a small spec in-process the way the server does
// and returns its store entry.
func solvedEntry(t *testing.T) *serial.StoredEntry {
	t.Helper()
	spec := &serial.SolveSpec{Network: grid{2, 3, 0.3, 1}.network(), Delta: 0.3, Epsilon: 3}
	pr, err := problemFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SolveCGCtx(context.Background(), pr, cgOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, etdd, err := pr.EnforceGeoI(res.Mechanism, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	return &serial.StoredEntry{Spec: *spec, Tier: serial.QualityOptimal, ETDD: etdd, Bound: res.LowerBound, K: m.K(), Z: m.Z}
}

func TestAuditCatchesPerturbedMechanism(t *testing.T) {
	e := solvedEntry(t)
	write := func(e *serial.StoredEntry) string {
		dir := filepath.Join(t.TempDir(), "store")
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WriteEntry(e); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	digest := e.Spec.Digest()
	if n, err := auditStore(write(e), []string{digest}); err != nil || n != 1 {
		t.Fatalf("clean store: %d entries, %v", n, err)
	}
	if _, err := auditStore(write(e), []string{digest, "missing"}); err == nil {
		t.Error("a solved digest absent from the store passed the audit")
	}

	// Move half of row 0's largest entry onto its smallest: the row
	// still sums to 1, so the store accepts it, but the smallest column
	// now breaks the Geo-I ratio against the other rows.
	bad := *e
	bad.Z = append([]float64(nil), e.Z...)
	hi, lo := 0, 0
	for l := 0; l < e.K; l++ {
		if bad.Z[l] > bad.Z[hi] {
			hi = l
		}
		if bad.Z[l] < bad.Z[lo] {
			lo = l
		}
	}
	d := bad.Z[hi] / 2
	bad.Z[hi] -= d
	bad.Z[lo] += d
	if _, err := auditStore(write(&bad), []string{digest}); err == nil {
		t.Error("a mechanism with one perturbed entry passed the audit")
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench has %d", len(b.Workloads), len(workloads))
	}
	for _, wl := range b.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to perfbench", wl.Name)
		}
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		units  map[string]string
	}{{b.EndToEnd, e2eUnits}, {b.PerLayer, layerUnits}} {
		if len(c.listed) != len(c.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, perfbench reports %d", len(c.listed), len(c.units))
		}
		for _, m := range c.listed {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, perfbench unit %q", m.Name, m.Unit, u)
			}
		}
	}
}
