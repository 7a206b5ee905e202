package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"nimbus/internal/app/lr"
	"nimbus/internal/driver"
	"nimbus/internal/transport"
)

// job-churn: two closed-loop clients run short LR jobs through a session
// multiplexer, so the front door, job lifecycle and template install
// path (record, off-loop build, worker compile) carry the load.
const (
	churnWorkers = 4
	churnSlots   = 2
	churnClients = 2
	churnConns   = 2 // multiplexer connections to the controller
)

func churnConfig(seed int64) lr.Config { return lr.Config{Partitions: 8, Seed: seed} }

type churnSuite struct {
	seed    int64
	tenants [churnClients]string
	mu      sync.Mutex
	got     [][]float64 // one job's coefficients per epoch
}

func newChurn(seed int64) suite {
	s := &churnSuite{seed: seed}
	rng := rand.New(rand.NewSource(seed))
	for i := range s.tenants {
		s.tenants[i] = fmt.Sprintf("tenant-%d-%08x", i, rng.Uint32())
	}
	return s
}

func (s *churnSuite) epoch(int) workload { return &churn{s: s} }

// finalCheck compares the epochs' coefficients with the same job run
// alone on one worker.
func (s *churnSuite) finalCheck(g *guard) error {
	c, err := memCluster(nil, 1, churnSlots, newRegistry(nil))
	if err != nil {
		return err
	}
	defer c.stop()
	e := &epoch{g: g}
	e.attach(c.nodes)
	want, err := runJob(e, c, c.tr, 0, 0, driver.Opts{Name: "churn-reference"}, s.seed)
	if err != nil {
		return fmt.Errorf("reference job: %w", err)
	}
	for i, got := range s.got {
		if !sameBits(got, want) {
			return fmt.Errorf("epoch %d: job coefficients differ from the 1-worker reference", i)
		}
	}
	return nil
}

// runJob runs one job's whole lifecycle as client and returns its
// coefficients: admission, data generation, two recorded templates and
// their predicate loops, the read-back, and teardown.
func runJob(e *epoch, c *cluster, tr transport.Transport, client int, req int64, o driver.Opts, seed int64) ([]float64, error) {
	g := e.g
	d, err := c.connect(e, client, req, tr, o)
	if err != nil {
		return nil, err
	}
	var j *lr.Job
	var coeff []float64
	err = g.call(client, "lr.Setup", req, func() (err error) {
		j, err = lr.Setup(d, churnConfig(seed))
		return err
	})
	if err == nil {
		err = g.call(client, "lr.Train", req, func() error {
			_, _, err := j.Train(0, 0, 2, 5)
			return err
		})
	}
	if err == nil {
		err = g.call(client, "driver.Get", req, func() (err error) {
			coeff, err = j.CoeffValue()
			return err
		})
	}
	if cerr := g.call(client, "driver.Close", req, d.Close); err == nil {
		err = cerr
	}
	return coeff, err
}

type churn struct {
	s   *churnSuite
	c   *cluster
	mux *driver.Mux

	mu    sync.Mutex
	first []float64 // coefficients every job must reproduce
	bad   error     // the first job whose coefficients differed
}

func (w *churn) setup(e *epoch) error {
	c, err := memCluster(e.wire, churnWorkers, churnSlots, newRegistry(e.fns))
	if err != nil {
		return err
	}
	w.c = c
	e.attach(c.nodes)
	w.mux = driver.NewMux(c.tr, churnConns)
	for client := 0; client < churnClients; client++ { // warm-up
		coeff, err := runJob(e, w.c, w.mux, client, 0, w.opts(client), w.s.seed)
		if err != nil {
			return err
		}
		w.compare(coeff)
	}
	return nil
}

func (w *churn) opts(client int) driver.Opts {
	return driver.Opts{Name: fmt.Sprintf("churn-%d", client), Tenant: w.s.tenants[client]}
}

// measure runs every client's closed loop of jobs until the deadline.
func (w *churn) measure(e *epoch, until time.Time) error {
	var wg sync.WaitGroup
	errs := make([]error, churnClients)
	for i := 0; i < churnClients; i++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for time.Now().Before(until) {
				err := e.request(client, "request.job", func(req int64) error {
					coeff, err := runJob(e, w.c, w.mux, client, req, w.opts(client), w.s.seed)
					if err == nil {
						w.compare(coeff)
					}
					return err
				})
				var reject *driver.RejectError
				switch {
				case errors.As(err, &reject):
					// Counted as failed by the guard; the client backs off
					// as told and starts its next job.
					time.Sleep(reject.RetryAfter)
					continue
				case err != nil:
					errs[client] = err
					return
				}
				e.addOps(1)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// compare checks a job's coefficients against the epoch's first job.
func (w *churn) compare(coeff []float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.first == nil {
		w.first = coeff
	} else if !sameBits(coeff, w.first) && w.bad == nil {
		w.bad = fmt.Errorf("a job's coefficients %v differ from an earlier job's %v", coeff, w.first)
	}
}

func (w *churn) check(*epoch) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.bad != nil {
		return w.bad
	}
	w.s.mu.Lock()
	w.s.got = append(w.s.got, w.first)
	w.s.mu.Unlock()
	return nil
}

func (w *churn) stop() {
	if w.mux != nil {
		w.mux.Close()
	}
	if w.c != nil {
		w.c.stop()
	}
}
