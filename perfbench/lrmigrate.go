package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"nimbus/internal/app/lr"
	"nimbus/internal/driver"
	"nimbus/internal/ids"
)

// lr-migrate: real-compute logistic regression where function time
// dominates, with a seeded migration every few iterations so template
// edits (the write side of the template cache) stay in the loop.
const (
	lrWorkers      = 4
	lrSlots        = 2
	lrWarmup       = 10 // iterations before measuring
	lrMigrateEvery = 5
	lrMigrateParts = 3
)

func lrConfig(seed int64) lr.Config {
	return lr.Config{Partitions: 64, RowsPerPart: 2048, Features: 32, ReduceFan: 8, Seed: seed}
}

type lrSuite struct {
	seed int64
	mu   sync.Mutex
	got  []lrResult // one per epoch
}

// lrResult is an epoch's final coefficients after iters iterations.
type lrResult struct {
	iters int
	coeff []float64
}

func newLRMigrate(seed int64) suite { return &lrSuite{seed: seed} }

func (s *lrSuite) epoch(i int) workload {
	return &lrMigrate{s: s, rng: rand.New(rand.NewSource(s.seed*1000 + int64(i)))}
}

// finalCheck compares every epoch's coefficients bit for bit with a
// 1-worker, no-migration reference run of the same iteration count.
func (s *lrSuite) finalCheck(g *guard) error {
	want := map[int][]float64{}
	max := 0
	for _, r := range s.got {
		want[r.iters] = nil
		if r.iters > max {
			max = r.iters
		}
	}
	c, err := memCluster(nil, 1, lrSlots, newRegistry(nil))
	if err != nil {
		return err
	}
	defer c.stop()
	e := &epoch{g: g}
	e.attach(c.nodes)
	d, err := c.connect(e, 0, 0, c.tr, driver.Opts{Name: "lr-reference"})
	if err != nil {
		return err
	}
	defer d.Close()
	var j *lr.Job
	if err := g.call(0, "lr.Setup", 0, func() (err error) {
		if j, err = lr.Setup(d, lrConfig(s.seed)); err != nil {
			return err
		}
		return j.InstallTemplates()
	}); err != nil {
		return err
	}
	for it := 1; it <= max; it++ {
		if err := g.call(0, "driver.Instantiate", 0, j.Optimize); err != nil {
			return err
		}
		if _, ok := want[it]; ok {
			if err := g.call(0, "driver.Get", 0, func() (err error) {
				want[it], err = j.CoeffValue()
				return err
			}); err != nil {
				return err
			}
		}
	}
	for i, r := range s.got {
		if !sameBits(r.coeff, want[r.iters]) {
			return fmt.Errorf("epoch %d: coefficients after %d iterations differ from the 1-worker reference", i, r.iters)
		}
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

type lrMigrate struct {
	s     *lrSuite
	rng   *rand.Rand // migration schedule: partitions and destinations
	c     *cluster
	d     *driver.Driver
	j     *lr.Job
	iters int
}

func (w *lrMigrate) setup(e *epoch) error {
	c, err := memCluster(e.wire, lrWorkers, lrSlots, newRegistry(e.fns))
	if err != nil {
		return err
	}
	w.c = c
	e.attach(c.nodes)
	if w.d, err = c.connect(e, 0, 0, c.tr, driver.Opts{Name: "lr-migrate"}); err != nil {
		return err
	}
	if err := e.g.call(0, "lr.Setup", 0, func() error {
		var err error
		w.j, err = lr.Setup(w.d, lrConfig(w.s.seed))
		return err
	}); err != nil {
		return err
	}
	if err := e.g.call(0, "record", 0, w.j.InstallTemplates); err != nil {
		return err
	}
	for i := 0; i < lrWarmup; i++ {
		if err := w.iterate(e, 0); err != nil {
			return err
		}
	}
	return nil
}

// iterate runs one iteration: a migration every lrMigrateEvery
// iterations, then Optimize and the gradient-norm read-back.
func (w *lrMigrate) iterate(e *epoch, req int64) error {
	g := e.g
	if w.iters > 0 && w.iters%lrMigrateEvery == 0 {
		if err := g.call(0, "controller.Migrate", req, w.migrate(e)); err != nil {
			return err
		}
	}
	if err := g.call(0, "driver.Instantiate", req, w.j.Optimize); err != nil {
		return err
	}
	return g.call(0, "driver.Get", req, func() error {
		v, err := w.j.GradNorm()
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = fmt.Errorf("gradient norm %v", v)
		}
		w.iters++
		return err
	})
}

// migrate draws the next move from the seeded schedule: lrMigrateParts
// distinct training partitions (with their gradients) to one worker.
func (w *lrMigrate) migrate(e *epoch) func() error {
	parts := w.rng.Perm(w.j.Cfg.Partitions)[:lrMigrateParts]
	sort.Ints(parts)
	pick := w.rng.Intn(lrWorkers)
	vars := []ids.VariableID{w.j.TData.ID, w.j.Grad.ID}
	ctrl := e.nodes.ctrl
	return func() error {
		var err error
		ctrl.Do(func() {
			active := ctrl.ActiveWorkers()
			err = ctrl.Migrate(vars, parts, active[pick%len(active)])
		})
		return err
	}
}

func (w *lrMigrate) measure(e *epoch, until time.Time) error {
	for time.Now().Before(until) {
		if err := e.request(0, "request.iteration", func(req int64) error { return w.iterate(e, req) }); err != nil {
			return err
		}
		e.addOps(1)
	}
	return nil
}

func (w *lrMigrate) check(e *epoch) error {
	var coeff []float64
	if err := e.g.call(0, "driver.Get", 0, func() error {
		var err error
		coeff, err = w.j.CoeffValue()
		return err
	}); err != nil {
		return err
	}
	w.s.mu.Lock()
	w.s.got = append(w.s.got, lrResult{iters: w.iters, coeff: coeff})
	w.s.mu.Unlock()
	return nil
}

func (w *lrMigrate) stop() {
	if w.d != nil {
		w.d.Close()
	}
	if w.c != nil {
		w.c.stop()
	}
}
