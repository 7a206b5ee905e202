package main

import (
	"fmt"
	"time"

	"nimbus/internal/app/lr"
	"nimbus/internal/driver"
	"nimbus/internal/fn"
)

// Benchmark functions. The no-op is registered by the benchmark rather
// than using the built-in fn.FuncNop because built-ins cannot be
// re-registered, and the traced run must wrap every function it times.
const (
	nopID      = fn.FirstAppFunc + 200
	mapID      = nopID + 1
	sizesID    = nopID + 2
	checksumID = nopID + 3

	nopName      = "perfbench/nop"
	mapName      = "perfbench/map"
	sizesName    = "perfbench/sizes"
	checksumName = "perfbench/checksum"
)

// newRegistry returns the registry every node of an epoch shares: the
// benchmark's functions and the LR application, each wrapped for timing
// when rec is non-nil.
func newRegistry(rec *fnRec) *fn.Registry {
	reg := fn.NewRegistry()
	rec.register(reg, nopID, nopName, func(*fn.Ctx) error { return nil })
	rec.register(reg, mapID, mapName, mapPartition)
	rec.register(reg, sizesID, sizesName, sumSizes)
	rec.register(reg, checksumID, checksumName, checksum)
	src := fn.NewRegistry()
	lr.Register(src)
	rec.registerFrom(reg, src, lr.FnGenData, lr.FnGradient, lr.FnReduceGrad,
		lr.FnApplyGrad, lr.FnEstimate, lr.FnReduceErr, lr.FnUpdateModel)
	return reg
}

// ctrl-tcp: one templated block of no-op tasks over TCP loopback, so the
// control plane (driver, controller instantiate, codec, TCP, worker
// scheduler) is the entire critical path.
const (
	ctrlWorkers = 4
	ctrlSlots   = 8
	ctrlLeaves  = 1024
	ctrlMid     = 32
	ctrlTasks   = ctrlLeaves + ctrlMid + 1
	ctrlWindow  = 10 // instantiations per Barrier
	ctrlWarmup  = 5  // windows before measuring
	ctrlBlock   = "perfbench/ctrl"
)

type ctrlSuite struct{}

// newCtrlTCP builds the ctrl-tcp suite. Its inputs are fixed: no-op
// tasks read and write no data the seed could vary.
func newCtrlTCP(int64) suite { return ctrlSuite{} }

func (ctrlSuite) epoch(int) workload      { return &ctrlTCP{} }
func (ctrlSuite) finalCheck(*guard) error { return nil }

type ctrlTCP struct {
	c     *cluster
	d     *driver.Driver
	insts int
	ran   uint64 // tasks run during the measured phase
}

func (w *ctrlTCP) setup(e *epoch) error {
	c, err := tcpCluster(e.wire, ctrlWorkers, ctrlSlots, newRegistry(e.fns))
	if err != nil {
		return err
	}
	w.c = c
	e.attach(c.nodes)
	if w.d, err = c.connect(e, 0, 0, c.tr, driver.Opts{Name: "ctrl-tcp"}); err != nil {
		return err
	}
	d := w.d
	if err := e.g.call(0, "record", 0, func() error {
		x, err := d.DefineVariable("x", ctrlLeaves)
		if err != nil {
			return err
		}
		y, err := d.DefineVariable("y", ctrlMid)
		if err != nil {
			return err
		}
		z, err := d.DefineVariable("z", 1)
		if err != nil {
			return err
		}
		for _, step := range []func() error{
			func() error { return d.BeginTemplate(ctrlBlock) },
			func() error { return d.Submit(nopID, ctrlLeaves, nil, x.Write()) },
			func() error { return d.Submit(nopID, ctrlMid, nil, x.ReadGrouped(), y.Write()) },
			func() error { return d.Submit(nopID, 1, nil, y.ReadGrouped(), z.WriteShared()) },
			func() error { return d.EndTemplate(ctrlBlock) },
			d.Barrier,
		} {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for i := 0; i < ctrlWarmup; i++ {
		if err := w.window(e, 0); err != nil {
			return err
		}
	}
	return nil
}

// window issues ctrlWindow instantiations, then waits for all of them.
func (w *ctrlTCP) window(e *epoch, req int64) error {
	for i := 0; i < ctrlWindow; i++ {
		if err := e.g.call(0, "driver.Instantiate", req, func() error { return w.d.Instantiate(ctrlBlock) }); err != nil {
			return err
		}
	}
	return e.g.call(0, "driver.Barrier", req, w.d.Barrier)
}

func (w *ctrlTCP) measure(e *epoch, until time.Time) error {
	before := tasksRun(e.nodes)
	for time.Now().Before(until) {
		if err := e.request(0, "request.batch", func(req int64) error { return w.window(e, req) }); err != nil {
			return err
		}
		w.insts += ctrlWindow
		e.addOps(ctrlWindow)
	}
	w.ran = tasksRun(e.nodes) - before
	return nil
}

func (w *ctrlTCP) check(*epoch) error {
	if want := uint64(w.insts) * ctrlTasks; w.ran != want {
		return fmt.Errorf("workers ran %d tasks for %d instantiations, want %d", w.ran, w.insts, want)
	}
	return nil
}

func (w *ctrlTCP) stop() {
	if w.d != nil {
		w.d.Close()
	}
	if w.c != nil {
		w.c.stop()
	}
}

// tasksRun sums the tasks every worker has run.
func tasksRun(n nodes) uint64 {
	var t uint64
	for _, w := range n.workers {
		t += w.Stats.TasksRun.Load()
	}
	return t
}
