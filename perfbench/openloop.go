package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serial"
)

// maxBacklog is how late an arrival may be sent before the phase is
// abandoned: past it the backlog is growing without bound, and the
// rest of the plan is skipped rather than queued for minutes.
const maxBacklog = 2 * time.Second

// outcome is one open-loop arrival as the generator saw it. Times are
// offsets from the phase start; latency runs from Due, so a stall also
// charges the arrivals queued behind it.
type outcome struct {
	Due, Sent, Done time.Duration
	Fail            failKind
	Skipped         bool // never sent: the phase was stopped or abandoned first
}

// phase is one open-loop phase's record, with its accounting.
type phase struct {
	Name string
	Rate float64
	Out  []outcome
	// Abandoned is set when an arrival went out more than maxBacklog
	// late and the rest of the plan was skipped; a stop does not set it.
	Abandoned bool
}

type phaseCount struct {
	Sent, OK, Failed, Skipped int
	LagP99Ms                  float64
}

func (p *phase) count() phaseCount {
	var c phaseCount
	var lags []float64
	for _, o := range p.Out {
		switch {
		case o.Skipped:
			c.Skipped++
			continue
		case o.Fail != failNone:
			c.Failed++
		default:
			c.OK++
		}
		c.Sent++
		lags = append(lags, ms(o.Sent-o.Due))
	}
	if len(lags) > 0 {
		c.LagP99Ms = summarize(lags).Tail
	}
	return c
}

// latenciesMs returns due-to-done latency of every sent arrival in
// arrival order; a failed arrival counts as missing any limit (+Inf).
func (p *phase) latenciesMs() []float64 {
	var out []float64
	for _, o := range p.Out {
		if o.Skipped {
			continue
		}
		if o.Fail != failNone {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(o.Done-o.Due))
	}
	return out
}

// lagGrowing reports a backlog that built up over the phase: the phase
// was abandoned because the backlog passed maxBacklog, or the median
// send lag of the last fifth of the sent arrivals exceeds that of the
// first fifth by more than slack.
func (p *phase) lagGrowing(slack time.Duration) bool {
	if p.Abandoned {
		return true
	}
	var lags []float64
	for _, o := range p.Out {
		if o.Skipped {
			continue
		}
		lags = append(lags, ms(o.Sent-o.Due))
	}
	n := len(lags) / 5
	if n == 0 {
		return false
	}
	return median(lags[len(lags)-n:])-median(lags[:n]) > ms(slack)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop sends plan open loop: each arrival goes out at its due time
// on the first of conns sender connections to come free, and waits
// queued in the generator if none is. Every 2xx body is checked once
// the phase is over. A closed stop channel (nil means never) skips the
// rest of the plan.
func openLoop(ctx context.Context, c *http.Client, url, name string, rate float64, w *workload, plan []shot,
	chk *checker, stop <-chan struct{}, tr *spanLog) phase {
	out := make([]outcome, len(plan))
	var next atomic.Int64
	// abandoned skips the rest of the plan; overrun records that the
	// backlog, not a stop, caused it.
	var abandoned, overrun atomic.Bool

	// Bodies are kept and checked after the phase, so the generator
	// spends no CPU on checking while the server is being measured.
	bodies := make([][]byte, len(plan))
	start := time.Now()
	var senders sync.WaitGroup
	for range w.Conns {
		senders.Add(1)
		go func() {
			defer senders.Done()
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan) {
					return
				}
				s, o := plan[i], &out[i]
				o.Due = s.At
				if wait := s.At - time.Since(start); wait > 0 && !abandoned.Load() {
					timer.Reset(wait)
					select {
					case <-timer.C:
					case <-stop:
						abandoned.Store(true)
					case <-ctx.Done():
						abandoned.Store(true)
					}
				}
				if abandoned.Load() || stopped(stop) || ctx.Err() != nil {
					o.Skipped = true
					continue
				}
				o.Sent = time.Since(start)
				if o.Sent-o.Due > maxBacklog {
					overrun.Store(true)
					abandoned.Store(true)
					o.Skipped = true
					continue
				}
				_, body, fail := post(ctx, c, url, w.Bodies[s.Target][s.Body])
				o.Done, o.Fail = time.Since(start), fail
				if tr != nil {
					root := tr.add("client.request", int64(i), -1, start.Add(o.Due), start.Add(o.Done))
					tr.add("client.wait", int64(i), root, start.Add(o.Due), start.Add(o.Sent))
					tr.add("client.exchange", int64(i), root, start.Add(o.Sent), start.Add(o.Done))
				}
				if fail == failNone {
					bodies[i] = body
				}
			}
		}()
	}
	senders.Wait()
	var resp serial.ObfuscateResponse
	for i, b := range bodies {
		if b != nil {
			chk.obfuscate(&resp, plan[i].Target, w.P.locs, b)
		}
	}
	return phase{Name: name, Rate: rate, Out: out, Abandoned: overrun.Load()}
}

func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// solveResult is one closed-loop /solve.
type solveResult struct {
	Wall time.Duration
	Fail failKind
	Resp serial.SolveResponse
}

// solveAll posts specs one after another on c, checking each answer.
func solveAll(ctx context.Context, c *http.Client, base string, specs []*serial.SolveSpec, chk *checker) []solveResult {
	out := make([]solveResult, len(specs))
	for i, spec := range specs {
		body, err := json.Marshal(spec)
		if err != nil {
			chk.failf("solve: marshal spec %d: %v", i, err)
			out[i].Fail = failStatus
			continue
		}
		t := time.Now()
		_, data, fail := post(ctx, c, base+"/solve", body)
		out[i].Wall, out[i].Fail = time.Since(t), fail
		if fail != failNone {
			continue
		}
		if err := json.Unmarshal(data, &out[i].Resp); err != nil {
			chk.failf("solve: undecodable body: %v", err)
			continue
		}
		if err := checkSolve(spec, &out[i].Resp); err != nil {
			chk.failf("solve: %v", err)
		}
	}
	return out
}

// ladderResult is the outcome of climbing the rate ladder.
type ladderResult struct {
	MaxRPS float64
	Steps  []phase
}

// ladderMisses is how many failing steps in a row end the climb. One is
// too few: a single 56 ms stall of the host has failed a step whose p50
// was 1.4 ms, far below the knee.
const ladderMisses = 2

// climb runs the ladder's steps in order until ladderMisses in a row
// fail. A step fails on its p99 over p99Limit, any failed operation, or
// a growing backlog. MaxRPS is the throughput the highest passing step
// achieved (its answers over the time from its start to its last
// answer), so the figure is measured rather than one of the ladder's
// constants; 0 when no step passed.
func climb(ctx context.Context, c *http.Client, url string, w *workload, chk *checker) ladderResult {
	var res ladderResult
	misses := 0
	for k, rate := range w.P.ladder {
		ph := openLoop(ctx, c, url, "ladder", rate, w, w.Ladder[k], chk, nil, nil)
		res.Steps = append(res.Steps, ph)
		cnt := ph.count()
		if cnt.Failed == 0 && cnt.Skipped == 0 && !ph.lagGrowing(p99Limit) && summarize(ph.latenciesMs()).Tail <= ms(p99Limit) {
			res.MaxRPS, misses = ph.throughput(), 0
			continue
		}
		if misses++; misses == ladderMisses {
			break
		}
	}
	return res
}

// throughput is the phase's answers per second, from its start to its
// last answer.
func (p *phase) throughput() float64 {
	var last time.Duration
	n := 0
	for _, o := range p.Out {
		if !o.Skipped && o.Fail == failNone {
			n++
			last = max(last, o.Done)
		}
	}
	if last <= 0 {
		return 0
	}
	return float64(n) / last.Seconds()
}

// span is one timed call: name, start and end relative to the log's
// epoch, the index of the span that caused it (-1 for a root) and the
// request it belongs to.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(name string, req int64, parent int, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name, req, parent, start.Sub(l.epoch).Nanoseconds(), end.Sub(l.epoch).Nanoseconds()})
	return len(l.spans) - 1
}

// finish sets the end of span i, for spans opened before their end was
// known.
func (l *spanLog) finish(i int, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].End = end.Sub(l.epoch).Nanoseconds()
}

// durations returns the durations in µs of every span named name.
func (l *spanLog) durations(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}
