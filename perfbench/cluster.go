package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"nimbus/internal/controller"
	"nimbus/internal/driver"
	"nimbus/internal/durable"
	"nimbus/internal/fn"
	"nimbus/internal/transport"
	"nimbus/internal/worker"
)

// spillRoot holds the workers' receive-side spill directories, so a run
// writes nothing outside the directory it was started in.
const spillRoot = ".bench_build/spill"

func discard(string, ...any) {}

// cluster is one epoch's running deployment, built from controller.New
// and worker.New so the traced run can hand every node a wrapped
// transport (cluster.Options cannot inject one).
type cluster struct {
	tr    transport.Transport
	addr  string
	nodes nodes
	spill string
}

// startCluster starts a controller at ctrlAddr and n workers with slots
// executor slots each; dataAddr names worker i's data-plane address.
func startCluster(tr transport.Transport, ctrlAddr string, dataAddr func(i int) (string, error),
	n, slots int, reg *fn.Registry) (*cluster, error) {
	if err := os.MkdirAll(spillRoot, 0o755); err != nil {
		return nil, fmt.Errorf("spill dir: %w", err)
	}
	spill, err := os.MkdirTemp(spillRoot, "epoch-")
	if err != nil {
		return nil, fmt.Errorf("spill dir: %w", err)
	}
	c := &cluster{tr: tr, spill: spill, nodes: nodes{workerSlots: slots}}
	c.nodes.ctrl = controller.New(controller.Config{ControlAddr: ctrlAddr, Transport: tr, Logf: discard})
	if err := c.nodes.ctrl.Start(); err != nil {
		os.RemoveAll(spill)
		return nil, fmt.Errorf("controller: %w", err)
	}
	c.addr = c.nodes.ctrl.Addr()
	store := durable.NewMem()
	for i := 0; i < n; i++ {
		da, err := dataAddr(i)
		if err != nil {
			c.stop()
			return nil, err
		}
		w := worker.New(worker.Config{
			ControlAddr: c.addr, DataAddr: da, Transport: tr, Slots: slots,
			Registry: reg, Durable: store, SpillDir: filepath.Join(spill, fmt.Sprint(i)), Logf: discard,
		})
		if err := w.Start(); err != nil {
			c.stop()
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
		c.nodes.workers = append(c.nodes.workers, w)
	}
	return c, nil
}

// memCluster starts n workers over an in-memory transport with zero
// latency, wrapped for tracing when wire is non-nil.
func memCluster(wire *wireRec, n, slots int, reg *fn.Registry) (*cluster, error) {
	tr := wire.wrap(transport.NewMem(0))
	return startCluster(tr, "perfbench/controller", func(i int) (string, error) {
		return fmt.Sprintf("perfbench/data/%d", i), nil
	}, n, slots, reg)
}

// tcpCluster starts n workers over TCP loopback.
func tcpCluster(wire *wireRec, n, slots int, reg *fn.Registry) (*cluster, error) {
	tr := wire.wrap(transport.TCP{})
	return startCluster(tr, "127.0.0.1:0", func(int) (string, error) {
		// Peers dial the data address, so it must be a concrete port:
		// take a free one from a throwaway listener.
		l, err := transport.TCP{}.Listen("127.0.0.1:0")
		if err != nil {
			return "", err
		}
		defer l.Close()
		return l.Addr(), nil
	}, n, slots, reg)
}

// connect opens a driver session as client under the guard.
func (c *cluster) connect(e *epoch, client int, req int64, tr transport.Transport, o driver.Opts) (*driver.Driver, error) {
	var d *driver.Driver
	err := e.g.call(client, "driver.Connect", req, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), callLimit)
		defer cancel()
		var err error
		d, err = driver.ConnectOpts(ctx, tr, c.addr, o)
		return err
	})
	return d, err
}

// stop shuts down the controller and workers and waits for them.
func (c *cluster) stop() {
	if c.nodes.ctrl != nil {
		c.nodes.ctrl.Stop()
	}
	for _, w := range c.nodes.workers {
		w.Stop()
	}
	os.RemoveAll(c.spill)
}
