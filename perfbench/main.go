// Command perfbench is the repository's benchmark. It drives a
// vlpserved process built from the same tree, with its shipped
// defaults, over loopback HTTP, runs one seeded workload, checks every
// answer, and prints its metrics as one JSON object on the last line
// of standard output.
//
// Build and run one workload from the repository root:
//
//	bash perfbench/run.sh --workload city-hot --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the traced
// run, which reports the per-layer split instead. See README.md.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// units of every metric the benchmark reports, end-to-end and per-layer.
var e2eUnits = map[string]string{
	"setup_s":     "s",
	"obf_cpu_us":  "us",
	"solve_cpu_s": "s",
	"etdd_km":     "km",
	"peak_rss_mb": "MB",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one invocation's settings and scratch space.
type env struct {
	bin, work string
	seed      int64
	log       io.Writer // vlpserved's output
}

// run accumulates a run's operation accounting and phase lines.
type run struct {
	env       *env
	w         *workload
	chk       *checker
	attempted int
	failed    int
	lines     []string
	metrics   map[string]metric
}

// set records a metric under its unit from e2eUnits or layerUnits.
func (r *run) set(name string, v float64) {
	unit, ok := e2eUnits[name]
	if !ok {
		unit, ok = layerUnits[name]
	}
	if !ok {
		panic("perfbench: metric " + name + " has no unit")
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) countSolves(name string, rs []solveResult) {
	ok := 0
	for _, s := range rs {
		if s.Fail == failNone {
			ok++
		}
	}
	walls, total := wallsOf(rs)
	r.attempted += len(rs)
	r.failed += len(rs) - ok
	r.lines = append(r.lines, fmt.Sprintf("phase %-12s sent=%d ok=%d failed=%d p50_s=%.3f wall_s=%.3f",
		name, len(rs), ok, len(rs)-ok, median(walls), total))
}

func (r *run) countPhase(p phase) phaseCount {
	c := p.count()
	r.attempted += c.Sent
	r.failed += c.Failed
	lat := summarize(p.latenciesMs())
	r.lines = append(r.lines, fmt.Sprintf("phase %-12s rate=%g sent=%d ok=%d failed=%d skipped=%d lag_p99_ms=%.3f p50_ms=%.3f p%g_ms=%.3f",
		p.Name, p.Rate, c.Sent, c.OK, c.Failed, c.Skipped, c.LagP99Ms, lat.P50, lat.TailPct, lat.Tail))
	return c
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	workload := flag.String("workload", "", "workload: city-hot, fleet-tick or solve-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	root := flag.String("root", ".", "repository checkout the server was built from")
	bin := flag.String("server", "", "vlpserved binary built from -root")
	flag.Parse()
	if *bin == "" || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -server and --trace 0|1")
		return 2
	}
	w, err := buildWorkload(*workload, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	resDir := filepath.Join(*root, ".bench_build", "results")
	work := filepath.Join(*root, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	logf, err := os.Create(filepath.Join(work, "vlpserved.log"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer logf.Close()
	e := &env{bin: *bin, work: work, seed: *seed, log: logf}
	r := &run{env: e, w: w, chk: newChecker(w.Served), metrics: map[string]metric{}}

	steal0 := stealMs()
	var spans *spanLog
	if *traceFlag == 1 {
		spans = newSpanLog()
		err = r.traced(ctx, spans)
	} else {
		err = r.endToEnd(ctx)
	}
	if err == nil {
		err = r.chk.err()
	}
	r.lines = append(r.lines, fmt.Sprintf("host steal_ms=%d over the run", stealMs()-steal0))
	meta := metadata(*root)
	for _, l := range r.lines {
		fmt.Println(l)
	}
	metaJSON, _ := json.Marshal(meta) // a map of strings always marshals
	fmt.Printf("meta %s\n", metaJSON)
	if err != nil {
		logf.Close()
		if tail := logTail(filepath.Join(work, "vlpserved.log")); tail != "" {
			fmt.Fprintf(os.Stderr, "perfbench: vlpserved log tail:\n%s\n", tail)
		}
		fmt.Fprintln(os.Stderr, "perfbench: run failed:", err)
		return 1
	}
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", name, m.Value)
			return 1
		}
	}
	res := result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	if err := saveResult(resDir, *workload, *seed, *traceFlag, meta, r.lines, res, spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// setUp execs a fresh vlpserved over a fresh store and posts the served
// digests' cold solves, closed loop on one connection. It returns the
// server with the set-up time (exec to /healthz 200, plus the solves),
// the CPU seconds the server spent from exec to the last solve's answer,
// and the solves.
func (r *run) setUp(ctx context.Context, rep int) (*served, float64, float64, []solveResult, error) {
	dir := filepath.Join(r.env.work, fmt.Sprintf("store-%d", rep))
	srv, up, err := startServer(ctx, r.env.bin, dir, r.env.log)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	sol := solveAll(ctx, c, srv.base, r.w.Served, r.chk)
	cpu, err := srv.cpuSeconds()
	if err != nil {
		srv.stop()
		return nil, 0, 0, nil, err
	}
	r.countSolves(fmt.Sprintf("setup-%d", rep+1), sol)
	wall := up
	for i, s := range sol {
		if s.Fail != failNone {
			srv.stop()
			return nil, 0, 0, nil, fmt.Errorf("set-up solve %d failed (kind %d)", i, s.Fail)
		}
		r.chk.keys[i] = s.Resp.Key
		wall += s.Wall
	}
	return srv, wall.Seconds(), cpu, sol, nil
}

// exercised is what one pass over the real process measured.
type exercised struct {
	setups   []float64 // set-up times, s
	solveCPU float64   // server CPU s per spec of the fresh-spec sequence
	// solveTimes and solveWalls are the sequence's /solve wall times and
	// their total.
	solveTimes, solveWalls []float64
	served, seq            []solveResult
	meas                   phase
	ladder                 ladderResult
	readCPU                float64   // server CPU s per /obfuscate over the fixed-rate read-only phases
	rss                    []float64 // VmHWM after each set-up, MB
	storeDir               string
}

// exercise drives the real process: set up reps times and keep the last
// server, warm it, measure at the fixed rate (after a read-only phase
// and beside the fresh-spec sequence on solve-mix), climb the ladder,
// then stop the server and audit its store. around, when set, wraps the
// measured phase.
func (r *run) exercise(ctx context.Context, reps int, tr *spanLog, around func(*served, func()) error) (*exercised, error) {
	w := r.w
	x := &exercised{}
	var srv *served
	for rep := 0; rep < reps; rep++ {
		s, t, cpu, sol, err := r.setUp(ctx, rep)
		if err != nil {
			return nil, err
		}
		hwm, err := s.peakRSSMB()
		if err != nil {
			s.stop()
			return nil, err
		}
		x.setups, x.rss = append(x.setups, t), append(x.rss, hwm)
		r.lines = append(r.lines, fmt.Sprintf("set-up %d s=%.4f cpu_s=%.2f hwm_mb=%.1f", rep+1, t, cpu, hwm))
		if rep < reps-1 {
			s.stop()
			continue
		}
		srv, x.served = s, sol
	}
	defer srv.stop()
	x.storeDir = srv.storeDir

	// CPU readings bracket every phase; a failed read fails the run.
	var cpuErr error
	cpu := func() float64 {
		c, err := srv.cpuSeconds()
		if err != nil && cpuErr == nil {
			cpuErr = err
		}
		return c
	}
	if !w.P.beside {
		// The fresh-spec sequence alone, closed loop on one connection.
		sc := newClient(1)
		before := cpu()
		x.seq = solveAll(ctx, sc, srv.base, w.Sequence, r.chk)
		x.solveCPU = (cpu() - before) / float64(len(x.seq))
		sc.CloseIdleConnections()
		r.countSolves("solve-seq", x.seq)
	}
	cl := newClient(w.Conns)
	defer cl.CloseIdleConnections()
	url := srv.base + "/obfuscate"
	c0 := cpu()
	warm := openLoop(ctx, cl, url, "warmup", w.P.rate, w, w.Warm, r.chk, nil, nil)
	r.countPhase(warm)
	reads := warm.count().Sent
	if w.P.beside {
		ro := openLoop(ctx, cl, url, "reads", w.P.rate, w, w.Reads, r.chk, nil, nil)
		reads += r.countPhase(ro).Sent
	}
	c1 := cpu()
	measure := func() {
		var seq []solveResult
		if x.meas, seq = r.measure(ctx, cl, srv, tr); w.P.beside {
			x.seq = seq
		}
	}
	if around == nil {
		measure()
	} else if err := around(srv, measure); err != nil {
		return nil, err
	}
	c2 := cpu()
	if cpuErr != nil {
		return nil, cpuErr
	}
	x.ladder = climb(ctx, cl, url, w, r.chk)
	for _, st := range x.ladder.Steps {
		r.countPhase(st)
	}

	// obf_cpu_us covers only fixed-rate phases without solves: the
	// ladder's rates depend on where the climb stopped.
	readCPU := c1 - c0
	if !w.P.beside {
		readCPU += c2 - c1
		reads += x.meas.count().Sent
	}
	x.readCPU = readCPU / float64(max(1, reads))
	if w.P.beside {
		// The measured phase ran the sequence beside reads; take the
		// reads out at the read-only phases' CPU cost per request.
		seqCPU := (c2 - c1) - float64(x.meas.count().Sent)*x.readCPU
		x.solveCPU = seqCPU / float64(len(x.seq))
	}
	times, wall := wallsOf(x.seq)
	x.solveTimes, x.solveWalls = times, []float64{wall}
	return x, r.stopAndAudit(srv, x.seq)
}

// endToEnd is the untraced run: set up the workload's setups times, then the
// phases of exercise, reported as the end-to-end metrics.
func (r *run) endToEnd(ctx context.Context) error {
	x, err := r.exercise(ctx, r.w.P.setups, nil, nil)
	if err != nil {
		return err
	}
	p50, p99, err := r.latency(x.meas)
	if err != nil {
		return err
	}
	r.lines = append(r.lines, fmt.Sprintf("obf_p50_ms=%.4f obf_p99_ms=%.4f obf_max_rps=%.1f solve_p50_s=%.4f solve_wall_s=%.4f (per-layer, reported by the traced run)",
		p50, p99, x.ladder.MaxRPS, median(x.solveTimes), median(x.solveWalls)))
	r.set("setup_s", median(x.setups))
	r.set("obf_cpu_us", x.readCPU*1e6)
	r.set("solve_cpu_s", x.solveCPU)
	r.set("etdd_km", meanETDD(x.served, x.seq))
	r.set("peak_rss_mb", median(x.rss))
	return nil
}

// measure runs the fixed-rate phase. On solve-mix the fresh-spec
// sequence runs beside it on its own connection, and the phase ends
// when the sequence does; it returns the sequence's results then.
func (r *run) measure(ctx context.Context, cl *http.Client, srv *served, tr *spanLog) (phase, []solveResult) {
	w := r.w
	url := srv.base + "/obfuscate"
	if !w.P.beside {
		meas := openLoop(ctx, cl, url, "measure", w.P.rate, w, w.Measure, r.chk, nil, tr)
		r.countPhase(meas)
		return meas, nil
	}
	stop := make(chan struct{})
	var seq []solveResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(stop)
		c := newClient(1)
		defer c.CloseIdleConnections()
		seq = solveAll(ctx, c, srv.base, w.Sequence, r.chk)
	}()
	meas := openLoop(ctx, cl, url, "measure", w.P.rate, w, w.Measure, r.chk, stop, tr)
	<-done
	r.countPhase(meas)
	r.countSolves("solve-seq", seq)
	return meas, seq
}

// windowSize is the sample count of one latency window: the fewest that
// still leave 10 samples beyond the p99.
const windowSize = 1000

// latency reduces the measured phase to the medians, over consecutive
// windows of at least windowSize arrivals, of each window's p50 and p99.
// A slow spell of the machine then moves a minority of windows, not the
// metric. A phase whose generator lag grew is invalid.
func (r *run) latency(meas phase) (p50, p99 float64, err error) {
	if meas.lagGrowing(p99Limit) {
		return 0, 0, errors.New("generator lag grew during the measured phase: the fixed rate is past capacity")
	}
	lat := meas.latenciesMs()
	n := len(lat) / windowSize
	if n < 3 {
		return 0, 0, fmt.Errorf("measured phase has %d samples, too few for three p99 windows", len(lat))
	}
	var mids, tails []float64
	for k := 0; k < n; k++ {
		s := summarize(lat[k*len(lat)/n : (k+1)*len(lat)/n])
		mids, tails = append(mids, s.P50), append(tails, s.Tail)
	}
	r.lines = append(r.lines, fmt.Sprintf("windows n=%d p99_ms=%.3f", n, tails))
	return median(mids), median(tails), nil
}

// stopAndAudit stops the server and audits every mechanism it
// committed; every digest the run solved must be among them.
func (r *run) stopAndAudit(srv *served, seq []solveResult) error {
	srv.stop()
	want := append([]string(nil), r.chk.keys...)
	for _, s := range seq {
		want = append(want, s.Resp.Key)
	}
	n, err := auditStore(srv.storeDir, want)
	r.lines = append(r.lines, fmt.Sprintf("audit entries=%d clean=%t", n, err == nil))
	return err
}

// wallsOf returns each solve's wall time and their total, in seconds.
func wallsOf(rs []solveResult) ([]float64, float64) {
	out := make([]float64, len(rs))
	for i, s := range rs {
		out[i] = s.Wall.Seconds()
	}
	return out, sum(out)
}

func meanETDD(groups ...[]solveResult) float64 {
	var xs []float64
	for _, g := range groups {
		for _, s := range g {
			if s.Fail == failNone {
				xs = append(xs, s.Resp.ETDD)
			}
		}
	}
	return mean(xs)
}

// stealMs reads the machine-wide CPU time the hypervisor gave to other
// guests, from /proc/stat; 0 where it is not reported.
func stealMs() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	var ticks int64
	if _, err := fmt.Sscan(f[8], &ticks); err != nil {
		return 0
	}
	return ticks * 10 // USER_HZ is 100 on Linux
}

// metadata stamps a result with the machine and the code it measured.
func metadata(root string) map[string]string {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // empty when unavailable
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"kernel":     strings.TrimSpace(string(kernel)),
		"commit":     commit(root),
	}
}

// commit names the measured code: the git HEAD when the checkout is a
// repository, else a digest of its Go sources and module files.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable corners do not name the code
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f) // f is under root by construction
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// saveResult writes the run's full record, and in a traced run its
// spans, under .bench_build/results.
func saveResult(dir, wl string, seed int64, trace int, meta map[string]string, lines []string, res result, spans *spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", wl, seed, trace))
	data, err := json.MarshalIndent(map[string]interface{}{
		"workload": wl, "seed": seed, "meta": meta, "phases": lines, "result": res,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return err
	}
	if spans == nil {
		return nil
	}
	spans.mu.Lock()
	defer spans.mu.Unlock()
	data, err = json.Marshal(spans.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(base+".spans.json", data, 0o644)
}

func logTail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}
