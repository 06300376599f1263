package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/roadnet"
	"repro/internal/serial"
	"repro/internal/server"
	"repro/internal/store"
)

// layerUnits are the per-layer metrics of the traced run. Times are the
// median over the replayed requests or solves; counts are over the
// measured phase of the real process.
var layerUnits = map[string]string{
	"serial.spec_decode_us":        "us",
	"serial.validate_us":           "us",
	"serial.digest_us":             "us",
	"serial.decode_us":             "us",
	"serial.encode_us":             "us",
	"serial.req_bytes":             "B",
	"serial.resp_bytes":            "B",
	"core.sample_ns":               "ns",
	"server.handler_us":            "us",
	"server.self_us":               "us",
	"server.allocs_per_req":        "count",
	"server.alloc_bytes_per_req":   "B",
	"vlpserved.transport_us":       "us",
	"serial.to_graph_ms":           "ms",
	"discretize.new_ms":            "ms",
	"core.new_problem_ms":          "ms",
	"core.solve_cg_ms":             "ms",
	"core.cg_rounds":               "count",
	"core.cg_round_ms":             "ms",
	"core.pricing_yield":           "ratio",
	"core.enforce_geoi_ms":         "ms",
	"store.write_entry_ms":         "ms",
	"store.write_checkpoint_ms":    "ms",
	"store.load_entry_ms":          "ms",
	"store.bytes_written":          "B",
	"server.solve_ms":              "ms",
	"server.cache_hit_frac":        "ratio",
	"server.store_loads":           "count",
	"server.store_writes":          "count",
	"server.checkpoint_writes":     "count",
	"server.serve_queue_depth_max": "count",
	"server.admission_rejects":     "count",
	"server.rejected":              "count",
	"fail_frac":                    "ratio",
	"degraded_frac":                "ratio",
	"gen.lag_p99_ms":               "ms",
	"obf_p50_ms":                   "ms",
	"obf_p99_ms":                   "ms",
	"obf_max_rps":                  "1/s",
	"solve_p50_s":                  "s",
	"solve_wall_s":                 "s",
	"trace.obf_cpu_us":             "us",
}

// Replay sizes: enough requests for stable medians, bounded so the
// traced run of the heaviest shape stays within a few seconds.
const (
	replayMax    = 1500
	allocBatch   = 200
	statsPollGap = 100 * time.Millisecond
)

// cgOptions are vlpserved's shipped column-generation settings.
func cgOptions() core.CGOptions { return core.CGOptions{Xi: -0.05, RelGap: 0.02} }

// traced is the per-layer run. It drives the real process through one
// set-up and the phases of exercise, with client spans and /stats
// polling around the measured phase, then replays that phase's exact
// bodies and the run's solve specs in-process, timing each layer's
// public calls from outside.
func (r *run) traced(ctx context.Context, tr *spanLog) error {
	w := r.w
	var before, after server.StatsSnapshot
	var depthMax int64
	// /stats is polled on a connection of its own: part of the tracing
	// overhead this run reports.
	sc := newClient(1)
	defer sc.CloseIdleConnections()
	around := func(srv *served, measure func()) error {
		var err error
		if before, err = srv.stats(ctx, sc); err != nil {
			return err
		}
		pollStop := make(chan struct{})
		var pollWG sync.WaitGroup
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			t := time.NewTicker(statsPollGap)
			defer t.Stop()
			for {
				select {
				case <-pollStop:
					return
				case <-t.C:
					if s, err := srv.stats(ctx, sc); err == nil && s.ServeQueueDepth > depthMax {
						depthMax = s.ServeQueueDepth
					}
				}
			}
		}()
		measure()
		close(pollStop)
		pollWG.Wait()
		after, err = srv.stats(ctx, sc)
		return err
	}
	x, err := r.exercise(ctx, 1, tr, around)
	if err != nil {
		return err
	}

	p50, p99, err := r.latency(x.meas)
	if err != nil {
		return err
	}
	r.set("obf_p50_ms", p50)
	r.set("obf_p99_ms", p99)
	r.set("obf_max_rps", x.ladder.MaxRPS)
	r.set("solve_p50_s", median(x.solveTimes))
	r.set("solve_wall_s", median(x.solveWalls))
	r.set("trace.obf_cpu_us", x.readCPU*1e6)
	r.set("gen.lag_p99_ms", x.meas.count().LagP99Ms)
	r.set("server.serve_queue_depth_max", float64(depthMax))
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	r.set("server.cache_hit_frac", float64(hits)/float64(max(1, hits+misses)))
	r.set("server.store_loads", float64(after.StoreLoads-before.StoreLoads))
	r.set("server.store_writes", float64(after.StoreWrites-before.StoreWrites))
	r.set("server.checkpoint_writes", float64(after.CheckpointWrites-before.CheckpointWrites))
	r.set("server.admission_rejects", float64(after.AdmissionRejects-before.AdmissionRejects))
	r.set("server.rejected", float64(after.Rejected-before.Rejected))

	var solveMs []float64
	for _, s := range x.seq {
		solveMs = append(solveMs, s.Resp.SolveMs)
	}
	r.set("server.solve_ms", median(solveMs))
	r.set("fail_frac", float64(r.failed)/float64(max(1, r.attempted)))
	r.set("degraded_frac", float64(r.chk.degraded.Load())/float64(max(1, r.chk.checked.Load())))
	clientUs := tr.durations("client.exchange")

	handlerUs, err := r.replayServe(ctx, x.storeDir, x.meas, tr)
	if err != nil {
		return err
	}
	r.set("vlpserved.transport_us", median(clientUs)-handlerUs)

	// The serve workloads' own digests (city-hot's K = 182 problems)
	// say more about their set-up than the shared sequence does.
	specs := w.Served
	if w.P.beside {
		specs = w.Sequence
	}
	return r.replaySolves(ctx, specs, tr)
}

// replayServe replays up to replayMax of the measured phase's bodies
// through an in-process server.Handler over the run's own store, then
// times each layer's calls on the same bodies. It returns the median
// handler time in µs.
func (r *run) replayServe(ctx context.Context, storeDir string, meas phase, tr *spanLog) (float64, error) {
	w := r.w
	st, err := store.Open(storeDir)
	if err != nil {
		return 0, err
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	srv := server.New(sctx, server.Config{Store: st})
	// The replay server runs no solve, so there is nothing to drain.
	defer func() { _ = srv.Shutdown(ctx) }()
	h := srv.Handler()

	var shots []shot
	for i, o := range meas.Out {
		if !o.Skipped && len(shots) < replayMax {
			shots = append(shots, w.Measure[i])
		}
	}
	serve := func(s shot) (*httptest.ResponseRecorder, *http.Request) {
		req := httptest.NewRequest(http.MethodPost, "/obfuscate", bytes.NewReader(w.Bodies[s.Target][s.Body]))
		return httptest.NewRecorder(), req
	}
	// One untimed request per digest loads each mechanism from the store.
	for d := range w.Served {
		rec, req := serve(shot{Target: d})
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("replay: warm-up answered %d: %s", rec.Code, rec.Body.String())
		}
	}

	handle := func(i int, s shot) (float64, error) {
		rec, req := serve(s)
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		t1 := time.Now()
		tr.add("server.handler", int64(i), -1, t0, t1)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("replay: /obfuscate answered %d", rec.Code)
		}
		var resp serial.ObfuscateResponse
		r.chk.obfuscate(&resp, s.Target, w.P.locs, rec.Body.Bytes())
		return float64(t1.Sub(t0).Nanoseconds()) / 1e3, nil
	}
	if err := r.replayLayers(st, shots, handle, tr); err != nil {
		return 0, err
	}

	// Allocations, in batches without spans so only ServeHTTP counts.
	var allocs, bytesAlloc, n float64
	for b := 0; b+allocBatch <= len(shots); b += allocBatch {
		recs := make([]*httptest.ResponseRecorder, allocBatch)
		reqs := make([]*http.Request, allocBatch)
		for i := range recs {
			recs[i], reqs[i] = serve(shots[b+i])
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := range recs {
			h.ServeHTTP(recs[i], reqs[i])
		}
		runtime.ReadMemStats(&m1)
		allocs += float64(m1.Mallocs - m0.Mallocs)
		bytesAlloc += float64(m1.TotalAlloc - m0.TotalAlloc)
		n += allocBatch
	}
	r.set("server.allocs_per_req", allocs/max(1, n))
	r.set("server.alloc_bytes_per_req", bytesAlloc/max(1, n))

	return median(tr.durations("server.handler")), nil
}

// replayLayers serves each replayed request through handle, then times
// right after it the module calls the handler makes: the whole-request
// decode, the spec-only decode, Validate, Digest, Sample per location
// and the response encode. They are children of one replay.request span
// per request; the handler's self time is its ServeHTTP time minus
// their sum.
func (r *run) replayLayers(st *store.Store, shots []shot, handle func(int, shot) (float64, error), tr *spanLog) error {
	w := r.w
	type mech struct {
		m    *core.Mechanism
		g    *roadnet.Graph
		spec []byte
	}
	mechs := make([]mech, len(w.Served))
	for d, spec := range w.Served {
		e, err := st.LoadEntry(spec.Digest())
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		pr, err := problemFor(&e.Spec)
		if err != nil {
			return err
		}
		specBody, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		mechs[d] = mech{&core.Mechanism{Part: pr.Part, Z: e.Z}, pr.Part.G, specBody}
	}
	rng := rand.New(rand.NewSource(r.env.seed))
	var handler, spec, decode, validate, digest, sample, encode, self, reqB, respB []float64
	for i, s := range shots {
		dHandler, err := handle(i, s)
		if err != nil {
			return err
		}
		body, mc := w.Bodies[s.Target][s.Body], mechs[s.Target]
		t0 := time.Now()
		root := tr.add("replay.request", int64(i), -1, t0, t0)
		timed := func(name string, f func()) float64 {
			a := time.Now()
			f()
			b := time.Now()
			tr.add(name, int64(i), root, a, b)
			return float64(b.Sub(a).Nanoseconds()) / 1e3
		}
		var req serial.ObfuscateRequest
		var bare serial.SolveSpec
		var derr, serr, verr error
		dDec := timed("serial.decode", func() { derr = json.NewDecoder(bytes.NewReader(body)).Decode(&req) })
		dSpec := timed("serial.spec_decode", func() { serr = json.NewDecoder(bytes.NewReader(mc.spec)).Decode(&bare) })
		if derr != nil || serr != nil {
			return fmt.Errorf("replay: decode: %v %v", derr, serr)
		}
		dVal := timed("serial.validate", func() { verr = req.Validate() })
		if verr != nil {
			return verr
		}
		dDig := timed("serial.digest", func() { _ = req.SolveSpec.Digest() })
		truths := make([]roadnet.Location, len(req.Locations))
		for j, l := range req.Locations {
			truths[j] = roadnet.LocationFromStart(mc.g, roadnet.EdgeID(l.Road), l.FromStart)
		}
		obf := make([]roadnet.Location, len(truths))
		dSample := timed("core.sample", func() {
			for j, t := range truths {
				obf[j] = mc.m.Sample(rng, t)
			}
		})
		resp := serial.ObfuscateResponse{Key: r.chk.keys[s.Target], Cached: true, Quality: serial.QualityOptimal,
			Locations: make([]serial.Loc, len(obf))}
		for j, o := range obf {
			resp.Locations[j] = serial.Loc{Road: int(o.Edge), FromStart: o.FromStart(mc.g)}
		}
		var buf bytes.Buffer
		dEnc := timed("serial.encode", func() { _ = json.NewEncoder(&buf).Encode(&resp) })
		spec, decode, validate, digest = append(spec, dSpec), append(decode, dDec), append(validate, dVal), append(digest, dDig)
		sample, encode = append(sample, dSample*1e3/float64(len(truths))), append(encode, dEnc)
		handler = append(handler, dHandler)
		self = append(self, dHandler-(dDec+dVal+dDig+dSample+dEnc))
		reqB, respB = append(reqB, float64(len(body))), append(respB, float64(buf.Len()))
		tr.finish(root, time.Now())
	}
	r.set("serial.spec_decode_us", median(spec))
	r.set("serial.decode_us", median(decode))
	r.set("serial.validate_us", median(validate))
	r.set("serial.digest_us", median(digest))
	r.set("core.sample_ns", median(sample))
	r.set("serial.encode_us", median(encode))
	r.set("server.handler_us", median(handler))
	r.set("server.self_us", median(self))
	r.set("serial.req_bytes", median(reqB))
	r.set("serial.resp_bytes", median(respB))
	return nil
}

// replaySolves runs the server's solve pipeline in-process on the run's
// solved specs, one public call per span, committing each result to a
// temporary store as the server does: checkpoints every 8 rounds from
// inside the solve, then the entry.
func (r *run) replaySolves(ctx context.Context, specs []*serial.SolveSpec, tr *spanLog) error {
	st, err := store.Open(filepath.Join(r.env.work, "replay-store"))
	if err != nil {
		return err
	}
	var toGraph, part, prob, cg, rounds, roundMs, enforce, wEntry, wCkpt, load, written []float64
	added, offered := 0, 0
	for i, spec := range specs {
		req := int64(i)
		root := tr.add("replay.solve", req, -1, time.Now(), time.Now())
		timed := func(name string, parent int, f func()) float64 {
			a := time.Now()
			f()
			b := time.Now()
			tr.add(name, req, parent, a, b)
			return float64(b.Sub(a).Nanoseconds()) / 1e6
		}
		var g *roadnet.Graph
		var perr error
		toGraph = append(toGraph, timed("serial.to_graph", root, func() { g, perr = spec.Network.ToGraph() }))
		if perr != nil {
			return perr
		}
		var pt *discretize.Partition
		part = append(part, timed("discretize.new", root, func() { pt, perr = discretize.New(g, spec.Delta) }))
		if perr != nil {
			return perr
		}
		var pr *core.Problem
		prob = append(prob, timed("core.new_problem", root, func() { pr, perr = core.NewProblem(pt, problemConfig(spec)) }))
		if perr != nil {
			return perr
		}

		opts := cgOptions()
		solveStart := time.Now()
		solveSpan := tr.add("core.solve_cg", req, root, solveStart, solveStart)
		bytesOut := 0.0
		opts.OnIteration = func(iter int, it core.CGIteration) {
			now := time.Now()
			tr.add("core.cg_round", req, solveSpan, now.Add(-it.Elapsed), now)
			roundMs = append(roundMs, float64(it.Elapsed.Nanoseconds())/1e6)
			added += it.ColumnsAdded
			offered += pr.Part.K()
		}
		var ckErr error
		ckpt := func(rounds int, s *core.CGState) {
			c := &serial.StoredCheckpoint{Spec: *spec, Rounds: rounds, State: *storedState(s)}
			wCkpt = append(wCkpt, timed("store.write_checkpoint", solveSpan, func() { ckErr = st.WriteCheckpoint(c) }))
			if data, err := serial.EncodeStoredCheckpoint(c); err == nil {
				bytesOut += float64(len(data))
			}
		}
		opts.CheckpointEvery = 8
		opts.OnState = func(iter int, s *core.CGState) { ckpt(iter+1, s) }
		res, err := core.SolveCGCtx(ctx, pr, opts)
		end := time.Now()
		tr.finish(solveSpan, end)
		if err != nil {
			return fmt.Errorf("replay: solve %d: %w", i, err)
		}
		cg = append(cg, float64(end.Sub(solveStart).Nanoseconds())/1e6)
		rounds = append(rounds, float64(len(res.Iterations)))
		if len(res.Iterations)/8 == 0 {
			// Too few rounds for a checkpoint inside the solve: time one
			// of the final pool so every run reports the store's write.
			ckpt(len(res.Iterations), res.State)
		}
		if ckErr != nil {
			return ckErr
		}

		var m *core.Mechanism
		var etdd float64
		enforce = append(enforce, timed("core.enforce_geoi", root, func() { m, etdd, perr = pr.EnforceGeoI(res.Mechanism, 1e-10) }))
		if perr != nil {
			return perr
		}
		e := &serial.StoredEntry{Spec: *spec, Tier: serial.QualityOptimal, ETDD: etdd, Bound: res.LowerBound, K: m.K(), Z: m.Z}
		wEntry = append(wEntry, timed("store.write_entry", root, func() { perr = st.WriteEntry(e) }))
		if perr != nil {
			return perr
		}
		if data, err := serial.EncodeStoredEntry(e); err == nil {
			bytesOut += float64(len(data))
		}
		written = append(written, bytesOut)
		load = append(load, timed("store.load_entry", root, func() { _, perr = st.LoadEntry(spec.Digest()) }))
		if perr != nil {
			return perr
		}
		tr.finish(root, time.Now())
	}
	r.set("serial.to_graph_ms", median(toGraph))
	r.set("discretize.new_ms", median(part))
	r.set("core.new_problem_ms", median(prob))
	r.set("core.solve_cg_ms", median(cg))
	r.set("core.cg_rounds", median(rounds))
	r.set("core.cg_round_ms", median(roundMs))
	r.set("core.pricing_yield", float64(added)/float64(max(1, offered)))
	r.set("core.enforce_geoi_ms", median(enforce))
	r.set("store.write_entry_ms", median(wEntry))
	r.set("store.write_checkpoint_ms", median(wCkpt))
	r.set("store.load_entry_ms", median(load))
	r.set("store.bytes_written", median(written))
	return nil
}

// storedState is the snapshot form of a column pool, as the server
// commits it in a checkpoint.
func storedState(st *core.CGState) *serial.StoredState {
	snap := st.Snapshot()
	ss := &serial.StoredState{K: snap.K, Cols: make([]serial.StoredColumn, len(snap.Columns))}
	for i, c := range snap.Columns {
		ss.Cols[i] = serial.StoredColumn{L: c.L, Z: c.Z, Cost: c.Cost}
	}
	return ss
}
