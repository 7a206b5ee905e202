package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nimbus/internal/controller"
	"nimbus/internal/worker"
)

// guard counts every driver operation as attempted or failed and bounds
// every blocking call: a watchdog aborts the run with a diagnostic (the
// workload, the call and a Stats snapshot of every node) once a call
// outlives callLimit, so a lost reply cannot stall the benchmark.
type guard struct {
	workload string
	spans    *spanRec

	attempted atomic.Int64
	failed    atomic.Int64
	reqSeq    atomic.Int64

	// failMu is locked by the first fail and never released, so a
	// second failure waits for the first one's exit.
	failMu sync.Mutex

	mu      sync.Mutex
	pending map[int64]inflight // by call token
	token   int64
	cur     nodes
}

type inflight struct {
	call     string
	client   int
	started  time.Time
	deadline time.Time
}

func newGuard(workload string) *guard {
	return &guard{workload: workload, spans: &spanRec{}, pending: make(map[int64]inflight)}
}

func (g *guard) nextReq() int64 { return g.reqSeq.Add(1) }

func (g *guard) setNodes(n nodes) {
	g.mu.Lock()
	g.cur = n
	g.mu.Unlock()
}

// call runs one blocking driver or controller call of client under the
// call deadline, counting it and recording its span under request req.
func (g *guard) call(client int, name string, req int64, f func() error) error {
	g.attempted.Add(1)
	start := time.Now()
	g.mu.Lock()
	g.token++
	tok := g.token
	g.pending[tok] = inflight{call: name, client: client, started: start, deadline: start.Add(callLimit)}
	g.mu.Unlock()
	err := f()
	end := time.Now()
	g.mu.Lock()
	delete(g.pending, tok)
	g.mu.Unlock()
	g.spans.add(name, req, start, end)
	if err != nil {
		g.failed.Add(1)
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func (g *guard) counts() (attempted, failed int64) {
	return g.attempted.Load(), g.failed.Load()
}

// watch aborts the run when a call outlives its deadline or the run
// outlives runEnd. It never returns.
func (g *guard) watch(runEnd time.Time) {
	for range time.Tick(100 * time.Millisecond) {
		now := time.Now()
		if now.After(runEnd) {
			g.fail(fmt.Sprintf("run exceeded %v", runLimit))
		}
		g.mu.Lock()
		var late *inflight
		for _, p := range g.pending {
			if now.After(p.deadline) {
				p := p
				late = &p
				break
			}
		}
		g.mu.Unlock()
		if late != nil {
			g.failed.Add(1)
			g.fail(fmt.Sprintf("call %s of client %d still blocked after %v",
				late.call, late.client, now.Sub(late.started).Round(time.Millisecond)))
		}
	}
}

// fail prints a diagnostic and an incorrect result, then exits nonzero.
func (g *guard) fail(why string) {
	g.failMu.Lock()
	g.mu.Lock()
	n := g.cur
	g.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench: workload %s failed: %s\n", g.workload, why)
	if n.ctrl != nil {
		s := takeSnapshot(n)
		keys := make([]string, 0, len(s))
		for k, v := range s {
			if v != 0 {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s = %v\n", k, s[k])
		}
	}
	fmt.Fprint(os.Stderr, b.String())
	att, failed := g.counts()
	if failed == 0 {
		failed = 1 // a failed output check counts as one failed operation
	}
	if att < failed {
		att = failed
	}
	fmt.Println(encodeResult(false, att, failed, nil))
	os.Exit(1)
}

// printResult prints the result of a run whose checks all passed.
func (g *guard) printResult(metrics []metric) {
	att, failed := g.counts()
	fmt.Println(encodeResult(true, att, failed, metrics))
}

// nodes is the running cluster an epoch measures.
type nodes struct {
	ctrl        *controller.Controller
	workers     []*worker.Worker
	workerSlots int // executor slots per worker
}

func (n nodes) slots() int { return n.workerSlots * len(n.workers) }

// snapshot is a point-in-time reading of every public counter: the
// controller Stats, the worker Stats summed over workers, and the
// process's runtime and CPU counters.
type snapshot map[string]float64

func takeSnapshot(n nodes) snapshot {
	s := snapshot{}
	if n.ctrl != nil {
		addCounters(s, "controller.", &n.ctrl.Stats)
	}
	for _, w := range n.workers {
		addCounters(s, "worker.", &w.Stats)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s["runtime.TotalAlloc"] = float64(ms.TotalAlloc)
	s["runtime.NumGC"] = float64(ms.NumGC)
	s["runtime.PauseTotalNs"] = float64(ms.PauseTotalNs)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s["rusage.cpu_ns"] = float64(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// addCounters adds every atomic counter field of the Stats struct at p
// to s under prefix+field name.
func addCounters(s snapshot, prefix string, p any) {
	v := reflect.ValueOf(p).Elem()
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		switch c := v.Field(i).Addr().Interface().(type) {
		case *atomic.Uint64:
			s[prefix+t.Field(i).Name] += float64(c.Load())
		case *atomic.Int64:
			s[prefix+t.Field(i).Name] += float64(c.Load())
		}
	}
}

func (s sample) delta(key string) float64 { return s.after[key] - s.before[key] }
