// Command perfbench is the repository benchmark: it drives the Nimbus
// control plane, data plane and job lifecycle through their public APIs
// (driver, controller.New, worker.New, transport, fn.Registry and the
// public Stats counters) and prints end-to-end metrics, or with --trace 1
// per-layer metrics, as one JSON object on the last line of stdout.
//
// Each run repeats a fixed cycle several times ("epochs"): start a fresh
// cluster and warm it (timed as set-up), run the workload's closed loop
// for an equal share of --seconds, check the outputs, stop the cluster.
// Fresh clusters give several set-up samples per run and bound the live
// heap of workloads whose heap grows per operation (see
// heap_growth_kib_per_op).
//
// Predictions the workloads are built to test:
//
//   - A control-plane saving (driver, controller instantiate, codec,
//     transport, worker instantiate) raises tasks_per_s on ctrl-tcp and
//     leaves batch_ms_p50 on lr-migrate flat: LR iterations are
//     dominated by function time (fn.busy_share).
//   - A data-plane saving (stream, datastore, worker data plane) moves
//     shuffle-ingest only.
//   - An install-path saving (record, off-loop build, worker install and
//     compile) moves job-churn only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// epochs is how many set-up/measure/check cycles a run makes. An even
// count lets a traced run alternate untraced and traced epochs.
const epochs = 10

// callLimit bounds every blocking call the benchmark makes into the
// system; runLimit bounds the whole run. Both abort the run with a
// diagnostic instead of hanging.
const (
	callLimit = 20 * time.Second
	runLimit  = 170 * time.Second
)

// workload is one benchmark workload. A fresh value serves one epoch.
type workload interface {
	// setup starts the system, loads inputs and warms the closed loop.
	setup(e *epoch) error
	// measure runs the closed loop until the deadline, recording one
	// latency sample per request.
	measure(e *epoch, until time.Time) error
	// check verifies the workload's outputs after the measured phase.
	check(e *epoch) error
	// stop releases everything setup started.
	stop()
}

// suite builds a workload's epochs and checks what they produced
// together once all have run, making its blocking calls under g.
type suite interface {
	epoch(index int) workload
	finalCheck(g *guard) error
}

var suites = map[string]func(seed int64) suite{
	"ctrl-tcp":       newCtrlTCP,
	"lr-migrate":     newLRMigrate,
	"shuffle-ingest": newShuffle,
	"job-churn":      newChurn,
}

// epoch is the state one set-up/measure/check cycle shares with its
// workload.
type epoch struct {
	g     *guard
	nodes nodes
	wire  *wireRec // nil unless traced
	fns   *fnRec   // nil unless traced

	mu  sync.Mutex
	lat []time.Duration // one per closed-loop request
	ops int             // instantiations, iterations, rounds or jobs
}

// attach makes n the epoch's cluster, whose Stats a failure diagnostic
// prints.
func (e *epoch) attach(n nodes) {
	e.nodes = n
	e.g.setNodes(n)
}

// request times one closed-loop request of client and records it.
func (e *epoch) request(client int, name string, f func(req int64) error) error {
	req := e.g.nextReq()
	start := time.Now()
	err := f(req)
	end := time.Now()
	e.g.spans.add(name, req, start, end)
	if err == nil {
		e.mu.Lock()
		e.lat = append(e.lat, end.Sub(start))
		e.mu.Unlock()
	}
	return err
}

// addOps counts completed workload operations.
func (e *epoch) addOps(n int) {
	e.mu.Lock()
	e.ops += n
	e.mu.Unlock()
}

// sample is what one epoch's measured phase produced.
type sample struct {
	traced    bool
	setup     time.Duration
	wall      time.Duration
	lat       []time.Duration
	ops       int
	before    snapshot
	after     snapshot
	heapDelta int64 // live heap after the phase minus before, bytes
	wire      *wireRec
	fns       *fnRec
	slots     int
	admitP99  float64 // controller-side admission p99, traced epochs only
}

func main() {
	name := flag.String("workload", "", "workload: ctrl-tcp, lr-migrate, shuffle-ingest or job-churn")
	seed := flag.Int64("seed", 1, "seed every input derives from")
	seconds := flag.Float64("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	commit := flag.String("commit", "unknown", "source commit, printed with the results")
	flag.Parse()
	mk := suites[*name]
	if mk == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%v trace=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *commit)

	su := mk(*seed)
	g := newGuard(*name)
	go g.watch(time.Now().Add(runLimit))
	per := time.Duration(*seconds * float64(time.Second) / epochs)
	var samples []sample
	for i := 0; i < epochs; i++ {
		samples = append(samples, runEpoch(g, su.epoch(i), i, *trace == 1 && i%2 == 1, per))
	}
	if err := su.finalCheck(g); err != nil {
		g.fail(err.Error())
	}

	var requests, ops int
	for _, s := range samples {
		requests += len(s.lat)
		ops += s.ops
	}
	fmt.Printf("epochs=%d requests=%d ops=%d\n", epochs, requests, ops)
	if requests < tailBlock {
		fmt.Fprintf(os.Stderr, "perfbench: only %d requests; batch_ms_p95 has fewer than 10 beyond it\n", requests)
	}

	var metrics []metric
	if *trace == 1 {
		metrics = layerMetrics(samples, g)
		if err := g.spans.write(fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", *name, *seed)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	} else {
		metrics = endToEnd(samples, g)
	}
	for _, m := range metrics {
		fmt.Printf("%-40s %14.6g %s\n", m.name, m.value, m.unit)
	}
	g.printResult(metrics)
}

// runEpoch runs one set-up/measure/check cycle. A failure ends the run
// with a diagnostic taken while the epoch's cluster is still up.
func runEpoch(g *guard, w workload, index int, traced bool, per time.Duration) sample {
	e := &epoch{g: g}
	if traced {
		e.wire = newWireRec()
		e.fns = newFnRec()
	}
	defer w.stop()
	defer g.setNodes(nodes{})
	fail := func(phase string, err error) {
		g.fail(fmt.Sprintf("epoch %d %s: %v", index, phase, err))
	}
	start := time.Now()
	if err := w.setup(e); err != nil {
		fail("setup", err)
	}
	s := sample{traced: traced, setup: time.Since(start), wire: e.wire, fns: e.fns, slots: e.nodes.slots()}

	liveBefore := liveHeap()
	s.before = takeSnapshot(e.nodes)
	g.spans.enable(traced)
	e.wire.enable(true)
	e.fns.enable(true)
	t0 := time.Now()
	if err := w.measure(e, t0.Add(per)); err != nil {
		fail("measure", err)
	}
	s.wall = time.Since(t0)
	if traced {
		s.admitP99 = us(e.nodes.ctrl.FrontDoorStats().AdmissionP99)
	}
	g.spans.enable(false)
	e.wire.enable(false)
	e.fns.enable(false)
	s.after = takeSnapshot(e.nodes)
	s.heapDelta = int64(liveHeap()) - int64(liveBefore)
	s.lat, s.ops = e.lat, e.ops
	if err := w.check(e); err != nil {
		fail("check", err)
	}
	return s
}

// liveHeap forces collections and returns the live heap in bytes. The
// second collection empties what sync.Pools kept through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd computes the end-to-end metrics from the given epochs.
func endToEnd(samples []sample, g *guard) []metric {
	var setups, rate, p50 []float64
	var lat []time.Duration
	var growth, ops float64
	for _, s := range samples {
		setups = append(setups, s.setup.Seconds())
		growth += float64(s.heapDelta)
		ops += float64(s.ops)
		rate = append(rate, s.delta("worker.TasksRun")/s.wall.Seconds())
		p50 = append(p50, quantileMs(s.lat, 0.50))
		lat = append(lat, s.lat...)
	}
	att, failed := g.counts()
	return []metric{
		{"setup_s", median(setups), "s"},
		{"ok_ratio", float64(att-failed) / float64(att), "ratio"},
		{"heap_growth_kib_per_op", growth / 1024 / ops, "KiB"},
		{"tasks_per_s", median(rate), "1/s"},
		{"batch_ms_p50", median(p50), "ms"},
		{"batch_ms_p95", blockQuantileMs(lat, 0.95), "ms"},
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileMs returns the q-quantile of d in milliseconds (nearest rank).
func quantileMs(d []time.Duration, q float64) float64 {
	return float64(quantile(d, q)) / 1e6
}

// tailBlock is the fewest requests a p95 is taken over: 10 beyond it.
const tailBlock = 200

// blockQuantileMs splits d, in completion order, into consecutive blocks
// of at least tailBlock samples and returns the median of their
// q-quantiles in milliseconds: a burst of contention from outside the
// process then moves one block's tail, not the whole estimate.
func blockQuantileMs(d []time.Duration, q float64) float64 {
	blocks := len(d) / tailBlock
	if blocks < 1 {
		blocks = 1
	}
	v := make([]float64, blocks)
	for b := range v {
		v[b] = quantileMs(d[b*len(d)/blocks:(b+1)*len(d)/blocks], q)
	}
	return median(v)
}

func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// result is the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func encodeResult(correct bool, attempted, failed int64, metrics []metric) string {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]resultValue{}}
	for _, m := range metrics {
		r.Metrics[m.name] = resultValue{m.value, m.unit}
	}
	b, err := json.Marshal(r)
	if err != nil {
		// Only a NaN or Inf metric can fail here; that is a bug in the
		// metric code, not an input the run can produce.
		panic(err)
	}
	return string(b)
}
