package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/serial"
)

// reuseSolver makes srv's solves cheap: every spec gets a fresh entry
// over base's mechanism, so keys stay per digest while no CG runs.
func reuseSolver(srv *Server, base *entry) {
	srv.solveFn = func(ctx context.Context, spec *serial.SolveSpec) (*entry, error) {
		return srv.newEntry(base.prob, base.mech, base.etdd, 0, serial.QualityOptimal), nil
	}
}

// serveBody posts body to path on h in-process and returns the status
// and the answer's key ("" on an error answer).
func serveBody(h http.Handler, path string, body []byte) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	var resp struct {
		Key string `json:"key"`
	}
	_ = json.Unmarshal(rec.Body.Bytes(), &resp)
	return rec.Code, resp.Key
}

// referenceServe is the serve path's decode as it was before the
// network memo: the whole body through one json.Decoder into
// serial.ObfuscateRequest, then Validate and Digest. Past the decode it
// applies the handlers' own checks (batch caps and toLocation on the
// stub graph g for /obfuscate), so it predicts every status a stub
// solver lets the handler answer.
func referenceServe(path string, body []byte, g *roadnet.Graph) (int, string) {
	var req serial.ObfuscateRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return http.StatusBadRequest, ""
	}
	if err := req.Validate(); err != nil {
		return http.StatusBadRequest, ""
	}
	if path == "/obfuscate" {
		if n := len(req.Locations); n == 0 || n > maxBatch {
			return http.StatusBadRequest, ""
		}
		for _, l := range req.Locations {
			if _, err := toLocation(g, l); err != nil {
				return http.StatusBadRequest, ""
			}
		}
	}
	return http.StatusOK, req.Digest()
}

// FuzzObfuscateDecode checks that decoding the network through the memo
// changes no answer: for any body, /obfuscate and then /solve answer
// the status and key of referenceServe, on a cold memo and again on a
// warm one.
func FuzzObfuscateDecode(f *testing.F) {
	spec := testSpecs(f, 1)[0]
	req := serial.ObfuscateRequest{SolveSpec: *spec, Locations: []serial.Loc{{Road: 1, FromStart: 0.1}}}
	valid, err := json.Marshal(&req)
	if err != nil {
		f.Fatal(err)
	}
	indented, err := json.MarshalIndent(&req, " ", "\t")
	if err != nil {
		f.Fatal(err)
	}
	net, err := json.Marshal(spec.Network)
	if err != nil {
		f.Fatal(err)
	}
	tail := `,"delta":0.3,"epsilon":2,"locations":[{"road":0,"from_start":0}]}`
	for _, seed := range []string{
		string(valid),
		string(indented),
		// Repeated and case-variant keys: encoding/json merges each later
		// member into the network the earlier one decoded.
		`{"network":` + string(net) + `,"network":{"nodes":[{"x":0.05}]}` + tail,
		`{"network":` + string(net) + `,"NETWORK":{"edges":[]}` + tail,
		`{"Network":` + string(net) + tail,
		`{"network":null,"network":` + string(net) + tail,
		`{"network":` + string(net) + `,"network":null` + tail,
		string(valid) + ` trailing garbage`,
		string(valid) + `{"network":5}`,
		`{"network":null` + tail,
		`{"network":5` + tail,
		`{"network":[]` + tail,
		`{"network":{"nodes":[{"x":"a"}]}` + tail,
		`{"extra":{"network":1},"network":{"nodes":[{"x":0,"y":0,"z":1},{"x":0.3,"y":0}],"edges":[{"from":0,"to":1,"weight":0,"lanes":2}],"more":[]}` + tail,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	base := stubEntry(f)
	g := base.prob.Part.G
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := New(context.Background(), Config{})
		reuseSolver(srv, base)
		h := srv.Handler()
		for _, path := range []string{"/obfuscate", "/solve"} {
			wantCode, wantKey := referenceServe(path, body, g)
			for _, memo := range []string{"cold", "warm"} {
				code, key := serveBody(h, path, body)
				if code != wantCode || key != wantKey {
					t.Fatalf("%s on a %s memo answered %d key %q, reference %d key %q", path, memo, code, key, wantCode, wantKey)
				}
			}
		}
	})
}

// memoSpecs returns n valid specs on n distinct networks, each as a
// compact and a whitespace-reformatted /obfuscate body.
func memoSpecs(tb testing.TB, n int) ([]*serial.SolveSpec, [][2][]byte) {
	tb.Helper()
	specs := make([]*serial.SolveSpec, n)
	bodies := make([][2][]byte, n)
	for i := range specs {
		g := roadnet.Grid(rand.New(rand.NewSource(1)), roadnet.GridConfig{Rows: 2, Cols: 2, Spacing: 0.3 + 0.01*float64(i)})
		specs[i] = &serial.SolveSpec{Network: serial.FromGraph(g), Delta: 0.3, Epsilon: 2}
		req := serial.ObfuscateRequest{SolveSpec: *specs[i], Locations: []serial.Loc{{Road: 0, FromStart: 0}}}
		var err error
		if bodies[i][0], err = json.Marshal(&req); err != nil {
			tb.Fatal(err)
		}
		if bodies[i][1], err = json.MarshalIndent(&req, "", "  "); err != nil {
			tb.Fatal(err)
		}
	}
	return specs, bodies
}

// memoNetworks is the set of networks the memo holds.
func memoNetworks(s *Server) map[*serial.Network]bool {
	out := map[*serial.Network]bool{}
	for _, n := range s.nets.entries() {
		out[n] = true
	}
	return out
}

// TestNetworkMemoConcurrent drives the memo from concurrent clients with
// more networks than CacheSize, each sent byte-identical and
// reformatted: every answer carries its spec's digest and the memo never
// outgrows its bound. Bodies the server refuses, by Validate or by a
// 429 from a full solve pool, leave the memo as it was.
func TestNetworkMemoConcurrent(t *testing.T) {
	const cacheSize = 4
	base := stubEntry(t)

	t.Run("concurrent clients", func(t *testing.T) {
		srv := New(context.Background(), Config{CacheSize: cacheSize, SolvePool: 8})
		reuseSolver(srv, base)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		specs, bodies := memoSpecs(t, cacheSize+3)

		const clients, perClient = 8, 40
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(c)))
				for j := 0; j < perClient; j++ {
					i := rng.Intn(len(specs))
					resp, err := ts.Client().Post(ts.URL+"/obfuscate", "application/json", bytes.NewReader(bodies[i][rng.Intn(2)]))
					if err != nil {
						t.Error(err)
						return
					}
					var out serial.ObfuscateResponse
					err = json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("spec %d answered %d (%v)", i, resp.StatusCode, err)
						return
					}
					if want := specs[i].Digest(); out.Key != want {
						t.Errorf("spec %d answered key %s, want %s", i, out.Key, want)
					}
					if n := srv.nets.len(); n > cacheSize {
						t.Errorf("memo holds %d networks, bound is %d", n, cacheSize)
					}
				}
			}(c)
		}
		wg.Wait()
		if n := srv.nets.len(); n != cacheSize {
			t.Fatalf("memo holds %d networks after %d distinct bodies, want %d", n, 2*len(specs), cacheSize)
		}

		// A valid network under an invalid spec is refused before any
		// solve and must not enter the memo.
		before := memoNetworks(srv)
		bad, _ := memoSpecs(t, cacheSize+4)
		spec := *bad[len(bad)-1]
		spec.Delta = -1
		body, err := json.Marshal(&serial.ObfuscateRequest{SolveSpec: spec, Locations: []serial.Loc{{}}})
		if err != nil {
			t.Fatal(err)
		}
		if code, _ := serveBody(srv.Handler(), "/obfuscate", body); code != http.StatusBadRequest {
			t.Fatalf("invalid spec answered %d, want 400", code)
		}
		if !reflect.DeepEqual(before, memoNetworks(srv)) {
			t.Fatal("a body that failed Validate changed the memo")
		}
	})

	t.Run("429 leaves the memo unchanged", func(t *testing.T) {
		srv := New(context.Background(), Config{CacheSize: cacheSize, SolvePool: 1})
		started, release := make(chan struct{}), make(chan struct{})
		srv.solveFn = func(ctx context.Context, spec *serial.SolveSpec) (*entry, error) {
			close(started)
			<-release
			return srv.newEntry(base.prob, base.mech, base.etdd, 0, serial.QualityOptimal), nil
		}
		h := srv.Handler()
		specs, bodies := memoSpecs(t, 2)

		done := make(chan string, 1)
		go func() {
			code, key := serveBody(h, "/obfuscate", bodies[0][0])
			done <- fmt.Sprintf("%d %s", code, key)
		}()
		<-started
		if code, _ := serveBody(h, "/solve", bodies[1][0]); code != http.StatusTooManyRequests {
			t.Fatalf("second cold spec answered %d, want 429", code)
		}
		if n := srv.nets.len(); n != 0 {
			t.Fatalf("memo holds %d networks after a 429 and no finished solve, want 0", n)
		}
		close(release)
		if got, want := <-done, fmt.Sprintf("%d %s", http.StatusOK, specs[0].Digest()); got != want {
			t.Fatalf("slow solve answered %q, want %q", got, want)
		}
		if n := srv.nets.len(); n != 1 {
			t.Fatalf("memo holds %d networks after one solved spec, want 1", n)
		}
	})
}

// cityHotBody returns a spec and /obfuscate body shaped like perfbench's
// city-hot workload: an 8×8 grid (≈10 KB spec) at δ 0.35 with 4
// locations.
func cityHotBody(tb testing.TB) (*serial.SolveSpec, []byte) {
	tb.Helper()
	g := roadnet.Grid(rand.New(rand.NewSource(8)), roadnet.GridConfig{
		Rows: 8, Cols: 8, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15,
	})
	spec := &serial.SolveSpec{Network: serial.FromGraph(g), Delta: 0.35, Epsilon: 8}
	req := serial.ObfuscateRequest{SolveSpec: *spec}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ {
		road := rng.Intn(g.NumEdges())
		req.Locations = append(req.Locations, serial.Loc{Road: road, FromStart: rng.Float64() * g.Edge(roadnet.EdgeID(road)).Weight})
	}
	body, err := json.Marshal(&req)
	if err != nil {
		tb.Fatal(err)
	}
	return spec, body
}

// TestObfuscateCachedAllocs budgets the allocations of one cached
// /obfuscate on a city-hot-shaped body. Decoding the 10 KB network on
// every request cost 49 allocations and 47.4 KB; with the network
// memoised this measures 34 and 43.3 KB (go1.24, amd64), most of it the
// json.Decoder's buffer and the raw network copy. The budgets leave
// about 5% of headroom.
func TestObfuscateCachedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	spec, body := cityHotBody(t)
	srv := New(context.Background(), Config{})
	srv.solveFn = func(ctx context.Context, spec *serial.SolveSpec) (*entry, error) {
		pr, err := srv.buildProblem(spec)
		if err != nil {
			return nil, err
		}
		return srv.newEntry(pr, pr.ExponentialMechanism(), 0, 0, serial.QualityOptimal), nil
	}
	h := srv.Handler()
	if code, key := serveBody(h, "/obfuscate", body); code != http.StatusOK || key != spec.Digest() {
		t.Fatalf("warm-up answered %d key %q", code, key)
	}

	const runs = 200
	recs := make([]*httptest.ResponseRecorder, runs+1)
	reqs := make([]*http.Request, runs+1)
	fresh := func() {
		for i := range reqs {
			recs[i] = httptest.NewRecorder()
			reqs[i] = httptest.NewRequest(http.MethodPost, "/obfuscate", bytes.NewReader(body))
		}
	}
	fresh()
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		h.ServeHTTP(recs[next], reqs[next])
		next++
	})

	fresh()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		h.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&m1)
	bytesPerReq := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	for _, rec := range recs[:runs] {
		if rec.Code != http.StatusOK {
			t.Fatalf("cached obfuscate answered %d: %s", rec.Code, rec.Body)
		}
	}
	t.Logf("cached obfuscate: %.1f allocs, %.0f B per request", allocs, bytesPerReq)
	const maxAllocs, maxBytes = 36, 45000
	if allocs > maxAllocs {
		t.Errorf("cached obfuscate allocates %.1f objects per request, budget %d", allocs, maxAllocs)
	}
	if bytesPerReq > maxBytes {
		t.Errorf("cached obfuscate allocates %.0f B per request, budget %d", bytesPerReq, maxBytes)
	}
}
