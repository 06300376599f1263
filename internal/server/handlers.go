package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"

	"repro/internal/roadnet"
	"repro/internal/serial"
)

// Request-body and batch ceilings: a city-scale network serialises to a
// few MB, and a batch is one fleet's reporting tick, not a bulk export.
const (
	maxBodyBytes = 32 << 20
	maxBatch     = 10000
)

// Handler returns the service's HTTP routes:
//
//	POST /solve      solve (or fetch) the mechanism for a spec
//	POST /obfuscate  obfuscate a batch of locations under a spec
//	GET  /stats      counters + per-mechanism cache contents
//	GET  /healthz    readiness probe: 503 once shutdown begins, so load
//	                 balancers stop routing to a draining instance
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("POST /obfuscate", s.handleObfuscate)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.setLeaderHeader(w)
	req, nk, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	e, cached, err := s.mechanismFor(r.Context(), &req.SolveSpec)
	if err != nil {
		s.writeServiceError(w, err)
		return
	}
	s.nets.add(nk, req.Network)
	writeJSON(w, http.StatusOK, serial.SolveResponse{
		Key:     e.key,
		Cached:  cached,
		K:       e.mech.K(),
		ETDD:    e.etdd,
		Bound:   e.bound,
		SolveMs: float64(e.solveTime.Microseconds()) / 1000,
		Quality: e.tier,
	})
}

func (s *Server) handleObfuscate(w http.ResponseWriter, r *http.Request) {
	s.setLeaderHeader(w)
	req, nk, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	if len(req.Locations) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("server: empty location batch"))
		return
	}
	if len(req.Locations) > maxBatch {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: batch of %d exceeds cap %d", len(req.Locations), maxBatch))
		return
	}
	e, cached, err := s.mechanismFor(r.Context(), &req.SolveSpec)
	if err != nil {
		s.writeServiceError(w, err)
		return
	}
	s.nets.add(nk, req.Network)

	// Sampling runs on the serve tier, acquired only after the mechanism
	// is in hand: a request that just paid for (or queued on) a cold
	// solve holds no serve slot during that wait, and a cached request
	// never competes with the solve pool at all. One slot covers the
	// whole batch.
	if err := s.serveGate.acquire(r.Context()); err != nil {
		s.writeServiceError(w, err)
		return
	}
	defer s.serveGate.release()
	rng := samplers.Get().(*rand.Rand)
	defer samplers.Put(rng)
	g := e.prob.Part.G
	out := make([]serial.Loc, len(req.Locations))
	for i, loc := range req.Locations {
		truth, err := toLocation(g, loc)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("location %d: %w", i, err))
			return
		}
		obf := e.sample(rng, truth)
		out[i] = serial.Loc{Road: int(obf.Edge), FromStart: obf.FromStart(g)}
	}
	writeJSON(w, http.StatusOK, serial.ObfuscateResponse{
		Key:       e.key,
		Cached:    cached,
		Quality:   e.tier,
		Locations: out,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// toLocation validates a wire location against the graph and converts it
// to the internal convention. The error messages deliberately carry no
// value derived from the location — they are echoed verbatim into HTTP
// error responses, and a raw road index or offset (or even the selected
// road's length) would leak the true position the Geo-I mechanism
// exists to hide. privtaint enforces this.
func toLocation(g *roadnet.Graph, l serial.Loc) (roadnet.Location, error) {
	if l.Road < 0 || l.Road >= g.NumEdges() {
		return roadnet.Location{}, fmt.Errorf("road index out of range [0, %d)", g.NumEdges())
	}
	w := g.Edge(roadnet.EdgeID(l.Road)).Weight
	if !(l.FromStart >= 0) || l.FromStart > w {
		return roadnet.Location{}, errors.New("from_start outside road length")
	}
	return roadnet.LocationFromStart(g, roadnet.EdgeID(l.Road), l.FromStart), nil
}

// specBody is how the handlers decode a /solve or /obfuscate body. Its
// depth-0 Network field shadows the promoted SolveSpec.Network, so the
// road network stays raw for networkFor while every other field decodes
// through serial.ObfuscateRequest as before. A /solve body carries no
// locations; the field just stays empty.
type specBody struct {
	serial.ObfuscateRequest
	Network rawNetwork `json:"network"`
}

// rawNetwork collects the raw bytes of every "network" member of a
// body, in order. encoding/json decodes a repeated or case-variant key
// into the same *Network, merging each later object into the earlier
// one, so keeping only the last member would change what such a body
// means; networkFor replays every member instead.
type rawNetwork [][]byte

func (r *rawNetwork) UnmarshalJSON(b []byte) error {
	*r = append(*r, append([]byte(nil), b...))
	return nil
}

// netKey names a rawNetwork in the memo: the SHA-256 of its members,
// each prefixed by its length.
type netKey [sha256.Size]byte

func (r rawNetwork) key() netKey {
	h := sha256.New()
	var n [8]byte
	for _, b := range r {
		binary.BigEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	var k netKey
	h.Sum(k[:0])
	return k
}

// networkFor decodes a body's road network. When these exact raw bytes
// were decoded before it returns the memoised *Network; otherwise it
// json.Unmarshals each member in order into one *Network, as the body
// decode would have. It is a pure cache of that decode: the shared
// *Network is only ever read, and Validate and Digest still run on
// every request. A miss is not inserted here. The handlers file the
// network under its key only once mechanismFor has resolved the spec,
// so invalid or unsolvable specs never fill the memo.
func (s *Server) networkFor(raw rawNetwork) (netKey, *serial.Network, error) {
	k := raw.key()
	if n, ok := s.nets.get(k); ok {
		return k, n, nil
	}
	var n *serial.Network
	for _, b := range raw {
		if err := json.Unmarshal(b, &n); err != nil {
			return k, nil, err
		}
	}
	return k, n, nil
}

// decodeSpec reads a bounded /solve or /obfuscate body and validates its
// spec, answering 4xx (503 while draining) and returning ok=false on
// failure. The returned key is where the handler files req.Network in
// the memo once the spec's mechanism is in hand.
func (s *Server) decodeSpec(w http.ResponseWriter, r *http.Request) (req *serial.ObfuscateRequest, nk netKey, ok bool) {
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrClosed)
		return nil, nk, false
	}
	var body specBody
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(&body)
	if err == nil {
		nk, body.ObfuscateRequest.Network, err = s.networkFor(body.Network)
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			writeError(w, http.StatusBadRequest, fmt.Errorf("server: bad request body: %w", err))
		}
		return nil, nk, false
	}
	req = &body.ObfuscateRequest
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, nk, false
	}
	return req, nk, true
}

// writeServiceError maps mechanismFor and serve-gate failures to statuses:
// backpressure → 429, shutdown → 503, solve-wait or request deadline →
// 504, anything else (a solver rejection of a pathological instance) →
// 422.
func (s *Server) writeServiceError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeError(w, http.StatusGatewayTimeout, err)
	default:
		writeError(w, http.StatusUnprocessableEntity, err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, serial.ErrorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
