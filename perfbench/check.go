package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/serial"
	"repro/internal/store"
)

// auditTol bounds the recomputed Geo-I violation of a stored mechanism.
// The server repairs every mechanism to 1e-10 before committing it and
// the snapshot encoding round-trips float64 exactly.
const auditTol = 1e-8

// offsetSlack absorbs the float round-off of the server's
// from-start conversion on the obfuscated side.
const offsetSlack = 1e-9

// checkObfuscate is the per-response output check: as many locations as
// were sent, each on a real road within its length, under the key the
// digest's /solve returned.
func checkObfuscate(net *serial.Network, key string, nloc int, r *serial.ObfuscateResponse) error {
	if r.Key != key {
		return fmt.Errorf("key %q, /solve gave %q", r.Key, key)
	}
	if err := checkQuality(r.Quality); err != nil {
		return err
	}
	if len(r.Locations) != nloc {
		return fmt.Errorf("%d locations returned for %d sent", len(r.Locations), nloc)
	}
	for i, l := range r.Locations {
		if l.Road < 0 || l.Road >= len(net.Edges) {
			return fmt.Errorf("location %d on road %d outside [0, %d)", i, l.Road, len(net.Edges))
		}
		w := net.Edges[l.Road].Weight
		if math.IsNaN(l.FromStart) || l.FromStart < -offsetSlack || l.FromStart > w+offsetSlack {
			return fmt.Errorf("location %d at %v outside road %d of length %v", i, l.FromStart, l.Road, w)
		}
	}
	return nil
}

// checkSolve checks one /solve answer against the spec that was posted.
func checkSolve(spec *serial.SolveSpec, r *serial.SolveResponse) error {
	if want := spec.Digest(); r.Key != want {
		return fmt.Errorf("/solve key %q, spec digest is %q", r.Key, want)
	}
	if err := checkQuality(r.Quality); err != nil {
		return err
	}
	if r.K < 1 || math.IsNaN(r.ETDD) || math.IsNaN(r.Bound) {
		return fmt.Errorf("/solve answered K=%d etdd=%v bound=%v", r.K, r.ETDD, r.Bound)
	}
	if r.ETDD < r.Bound-1e-9*math.Max(1, math.Abs(r.Bound)) {
		return fmt.Errorf("/solve etdd %v below its lower bound %v", r.ETDD, r.Bound)
	}
	return nil
}

func checkQuality(q string) error {
	switch q {
	case serial.QualityOptimal, serial.QualityIncumbent, serial.QualityFallback:
		return nil
	}
	return fmt.Errorf("unknown serving tier %q", q)
}

// checker collects output-check failures from every goroutine of a run.
// Any failure makes the run fail instead of reporting numbers.
type checker struct {
	nets []*serial.Network // per served digest
	keys []string          // per served digest, from /solve

	checked  atomic.Int64
	degraded atomic.Int64

	mu    sync.Mutex
	fails []string
	nfail int
}

func newChecker(served []*serial.SolveSpec) *checker {
	c := &checker{keys: make([]string, len(served))}
	for _, s := range served {
		c.nets = append(c.nets, s.Network)
	}
	return c
}

// failf records one failed check; only the first few are kept verbatim.
func (c *checker) failf(format string, args ...interface{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nfail++
	if len(c.fails) < 8 {
		c.fails = append(c.fails, fmt.Sprintf(format, args...))
	}
}

func (c *checker) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nfail == 0 {
		return nil
	}
	return fmt.Errorf("%d output checks failed, first: %v", c.nfail, c.fails)
}

// obfuscate checks one 2xx /obfuscate body aimed at digest target,
// decoding into r so a caller checking many bodies reuses its slice.
func (c *checker) obfuscate(r *serial.ObfuscateResponse, target, nloc int, body []byte) {
	c.checked.Add(1)
	*r = serial.ObfuscateResponse{Locations: r.Locations[:0]}
	if err := json.Unmarshal(body, r); err != nil {
		c.failf("obfuscate: undecodable body: %v", err)
		return
	}
	if r.Quality != serial.QualityOptimal {
		c.degraded.Add(1)
	}
	if err := checkObfuscate(c.nets[target], c.keys[target], nloc, r); err != nil {
		c.failf("obfuscate: %v", err)
	}
}

// auditStore reopens a run's store after its server has exited and
// checks every committed mechanism against the full Geo-I constraint
// set of its own spec, rebuilt from scratch through public calls. Every
// digest in want must have been committed. It returns the number of
// entries audited.
func auditStore(dir string, want []string) (int, error) {
	st, err := store.Open(dir)
	if err != nil {
		return 0, fmt.Errorf("audit: reopen store: %w", err)
	}
	rep, err := st.Scan()
	if err != nil {
		return 0, fmt.Errorf("audit: scan: %w", err)
	}
	if rep.Quarantined > 0 {
		return 0, fmt.Errorf("audit: scan quarantined %d files", rep.Quarantined)
	}
	seen := make(map[string]bool, len(rep.Entries))
	var errs []error
	for _, se := range rep.Entries {
		seen[se.Digest] = true
		e, err := st.LoadEntry(se.Digest)
		if err != nil {
			errs = append(errs, fmt.Errorf("audit: entry %s: %w", se.Digest, err))
			continue
		}
		v, err := geoIViolation(e)
		if err != nil {
			errs = append(errs, fmt.Errorf("audit: entry %s: %w", se.Digest, err))
		} else if v > auditTol {
			errs = append(errs, fmt.Errorf("audit: entry %s violates Geo-I by %g", se.Digest, v))
		}
	}
	for _, d := range want {
		if !seen[d] {
			errs = append(errs, fmt.Errorf("audit: digest %s was solved but never committed", d))
		}
	}
	return len(rep.Entries), errors.Join(errs...)
}

// problemFor rebuilds the D-VLP instance of a spec the way the server
// does before solving or serving it.
func problemFor(spec *serial.SolveSpec) (*core.Problem, error) {
	g, err := spec.Network.ToGraph()
	if err != nil {
		return nil, err
	}
	part, err := discretize.New(g, spec.Delta)
	if err != nil {
		return nil, err
	}
	return core.NewProblem(part, problemConfig(spec))
}

// problemConfig maps a spec's parameters onto core's, with the task
// prior falling back to the worker prior as in the server.
func problemConfig(spec *serial.SolveSpec) core.Config {
	var priorP, priorQ []float64
	if len(spec.Prior) > 0 {
		priorP, priorQ = spec.Prior, spec.Prior
	}
	if len(spec.TaskPrior) > 0 {
		priorQ = spec.TaskPrior
	}
	return core.Config{Epsilon: spec.Epsilon, Radius: spec.Radius, PriorP: priorP, PriorQ: priorQ}
}

func geoIViolation(e *serial.StoredEntry) (float64, error) {
	pr, err := problemFor(&e.Spec)
	if err != nil {
		return 0, err
	}
	m := &core.Mechanism{Part: pr.Part, Z: e.Z}
	if err := m.Validate(); err != nil {
		return 0, err
	}
	return pr.GeoIViolation(m), nil
}
