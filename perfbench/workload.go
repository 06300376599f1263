package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/loadgen"
	"repro/internal/roadnet"
	"repro/internal/serial"
)

// grid is a seeded grid city at one discretisation step. The road
// network is part of a workload's definition, so its seed is fixed per
// workload: the run seed varies what travels over the network (ε,
// locations, digest picks, order), not the network's size, which would
// move every metric between seeds.
type grid struct {
	rows, cols int
	delta      float64
	netSeed    int64
}

func (g grid) network() *serial.Network {
	rng := rand.New(rand.NewSource(g.netSeed))
	return serial.FromGraph(roadnet.Grid(rng, roadnet.GridConfig{
		Rows: g.rows, Cols: g.cols, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15,
	}))
}

// params is one workload's fixed shape. Rates and limits are constants
// chosen once on the parent commit (see README.md); they are not
// re-derived per run, so a faster or slower server shows as a moved
// metric rather than a moved workload.
type params struct {
	serve grid
	// eps are the ε of the served digests. They do not vary with the
	// seed: a jitter as small as 0.005 moved a fleet-tick cold solve
	// from 11 to 13 CG rounds, and set-up must do the same work on
	// every seed.
	eps    []float64
	locs   int
	bodies int // pre-marshalled bodies per digest
	// setups is how many times the end-to-end run sets the server up
	// from scratch; setup_s is their median. Cheaper set-ups repeat more
	// often, so the median covers a few seconds on every workload.
	setups int
	// conns is the open-loop sender count; 0 means nproc.
	conns int
	// rate is the fixed open-loop rate (requests/s) of the measured phase.
	rate float64
	// ladder is the geometric rate ladder for obf_max_rps.
	ladder []float64
	// beside runs the fresh-spec sequence beside the measured reads, at
	// seqPerSec specs per measured second; otherwise the sequence is
	// probeSpecs specs posted alone after set-up.
	beside    bool
	seqPerSec float64
}

// Shape constants shared by every workload: the Zipf exponent of digest
// picks and the p99 a ladder step may reach and still pass.
const (
	zipfS    = 1.2
	p99Limit = 50 * time.Millisecond
)

// The fresh-spec sequence every workload solves: a 3×4 grid at
// δ = 0.15 (K = 68) with ε over [2, 5.5], 6–31 CG rounds a spec. It is
// what solve_cpu_s measures, so that metric means the same on every
// workload.
var (
	seqGrid = grid{3, 4, 0.15, 4}
	seqEps  = [2]float64{2, 5.5}
)

// probeSpecs is the sequence length on workloads that solve it alone.
const probeSpecs = 10

func geometric(from, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = from
		from *= step
	}
	return out
}

var workloads = map[string]params{
	// Per-request work: an ≈10 KB spec decoded and hashed on every
	// request, 4 locations sampled.
	"city-hot": {
		serve: grid{8, 8, 0.35, 8}, eps: []float64{6, 8, 10, 12},
		locs: 4, bodies: 48, setups: 3,
		rate: 1000, ladder: geometric(2000, 1.05, 16),
	},
	// Per-location work: a small spec, 256 locations per request.
	"fleet-tick": {
		serve: grid{3, 3, 0.15, 3}, eps: []float64{3, 4},
		locs: 256, bodies: 24, setups: 7,
		rate: 900, ladder: geometric(1300, 1.05, 16),
	},
	// Writes beside reads: fresh solves on one connection while one
	// open-loop reader cycles 24 digests through a 16-entry cache.
	"solve-mix": {
		serve: grid{3, 3, 0.3, 5}, eps: geometric(1, 1.08, 24),
		locs: 4, bodies: 8, setups: 5, conns: 1,
		rate: 800, ladder: geometric(1600, 1.05, 18),
		beside: true, seqPerSec: 1.5,
	},
}

// workload is everything one run sends, built from (name, seed,
// seconds) before the first request.
type workload struct {
	Name string
	P    params
	// Served are posted to /solve, closed loop on one connection, at
	// set-up; open-loop arrivals target them by index.
	Served []*serial.SolveSpec
	// Bodies[d] are the /obfuscate bodies for Served[d].
	Bodies [][][]byte
	Conns  int
	Warm   []shot
	// Measure is the fixed-rate phase; on solve-mix it runs beside
	// Sequence and stops when the sequence ends.
	Measure []shot
	// Reads is solve-mix's fixed-rate phase without solves, over which
	// obf_cpu_us is taken; nil on the serve workloads, whose measured
	// phase only reads.
	Reads []shot
	// Ladder[k] is the plan of ladder step k (rate P.ladder[k]).
	Ladder [][]shot
	// Sequence is the fresh specs, in posting order.
	Sequence []*serial.SolveSpec
}

// shot is one open-loop arrival: due At after the phase starts, aimed
// at digest Target with body Bodies[Target][Body].
type shot struct {
	At     time.Duration
	Target int
	Body   int
}

// Phase lengths as shares of --seconds.
const (
	warmShare    = 0.05
	measureShare = 0.6
	// stepShare is one ladder step, unless that is too short for
	// minStepSamples arrivals; the climb stops after ladderMisses
	// failing steps in a row.
	stepShare      = 0.024
	minStepSamples = 1100
	// solve-mix's reader plan is cut when the sequence ends; it is
	// scheduled long enough for a sequence several times slower than
	// the parent's.
	mixPlanShare = 4.0
)

func buildWorkload(name string, seed int64, seconds int) (*workload, error) {
	p, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	// One stream per input kind, so adding draws to one kind never
	// shifts another.
	stream := func(k int64) *rand.Rand { return rand.New(rand.NewSource(seed*7919 + k)) }
	w := &workload{Name: name, P: p, Conns: p.conns}
	if w.Conns == 0 {
		w.Conns = runtime.NumCPU()
	}

	net := p.serve.network()
	locRng := stream(2)
	for _, e := range p.eps {
		spec := &serial.SolveSpec{Network: net, Delta: p.serve.delta, Epsilon: e}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		w.Served = append(w.Served, spec)
		pool := make([][]byte, p.bodies)
		for b := range pool {
			req := serial.ObfuscateRequest{SolveSpec: *spec, Locations: randomLocs(locRng, net, p.locs)}
			body, err := json.Marshal(&req)
			if err != nil {
				return nil, err
			}
			pool[b] = body
		}
		w.Bodies = append(w.Bodies, pool)
	}

	total := time.Duration(seconds) * time.Second
	share := func(f float64) time.Duration { return time.Duration(f * float64(total)) }
	var err error
	if w.Warm, err = w.plan(seed, 3, p.rate, share(warmShare)); err != nil {
		return nil, err
	}
	measure := share(measureShare)
	w.Sequence = sequence(stream(4), probeSpecs)
	if p.beside {
		measure = share(mixPlanShare)
		w.Sequence = sequence(stream(4), int(p.seqPerSec*float64(seconds)+0.5))
		if w.Reads, err = w.plan(seed, 6, p.rate, share(measureShare)); err != nil {
			return nil, err
		}
	}
	if w.Measure, err = w.plan(seed, 5, p.rate, measure); err != nil {
		return nil, err
	}
	for k, r := range p.ladder {
		// At least minStepSamples arrivals, so each step has a p99.
		step := max(share(stepShare), time.Duration(float64(minStepSamples)/r*float64(time.Second)))
		pl, err := w.plan(seed, 10+int64(k), r, step)
		if err != nil {
			return nil, err
		}
		w.Ladder = append(w.Ladder, pl)
	}
	return w, nil
}

// plan schedules one open-loop phase with loadgen's constant-rate,
// Zipf-target scheduler and draws a body per arrival.
func (w *workload) plan(seed, stream int64, rate float64, d time.Duration) ([]shot, error) {
	z, err := loadgen.NewZipf(seed*7919+stream, zipfS, 1, len(w.Served))
	if err != nil {
		return nil, err
	}
	arr, err := loadgen.Schedule(rate, d, z.Pick)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed*7919 + stream + 1000))
	out := make([]shot, len(arr))
	for i, a := range arr {
		out[i] = shot{At: a.At, Target: a.Target, Body: rng.Intn(len(w.Bodies[a.Target]))}
	}
	return out, nil
}

// sequence returns n fresh solve specs with ε at the middles of n
// equal strata of the workload's range, in an order the seed shuffles.
// The ε do not vary with the seed: jittering them by a twentieth of a
// stratum moved the fleet-tick sequence between 102 and 114 CG rounds.
func sequence(rng *rand.Rand, n int) []*serial.SolveSpec {
	if n < 4 {
		n = 4
	}
	net := seqGrid.network()
	lo, hi := seqEps[0], seqEps[1]
	out := make([]*serial.SolveSpec, n)
	for i, j := range rng.Perm(n) {
		eps := lo + (hi-lo)*(float64(j)+0.5)/float64(n)
		out[i] = &serial.SolveSpec{Network: net, Delta: seqGrid.delta, Epsilon: eps}
	}
	return out
}

func randomLocs(rng *rand.Rand, net *serial.Network, n int) []serial.Loc {
	out := make([]serial.Loc, n)
	for i := range out {
		road := rng.Intn(len(net.Edges))
		out[i] = serial.Loc{Road: road, FromStart: rng.Float64() * net.Edges[road].Weight}
	}
	return out
}
