package worker

import (
	"nimbus/internal/ids"
	"nimbus/internal/proto"
	"nimbus/internal/transport"
)

// BenchLoop drives a single worker's scheduler synchronously, without the
// event-loop goroutine: control messages are applied directly on the
// caller's goroutine, so benchmarks and allocation-ceiling tests can
// measure the instantiate→activate→complete path in isolation. Outbound
// control traffic (BlockDone, Complete) goes to a drain goroutine that
// recycles the frame buffers, keeping the codec pool primed exactly as a
// live controller connection would.
//
// BenchLoop is for measurement only: it must not be mixed with Start, and
// templates should avoid Task entries unless the caller dispatches the
// resulting executor goroutines itself.
type BenchLoop struct {
	W     *Worker
	drain transport.Conn
}

// NewBenchLoop builds a loopback worker with the given executor slot
// count.
func NewBenchLoop(slots int) *BenchLoop { return NewBenchLoopConfig(Config{Slots: slots}) }

// NewBenchLoopConfig builds a loopback worker from cfg. A benchmark of the
// data plane sets cfg.Transport and names its peers with a
// RegisterWorkerAck; CopySends then reach them through the live peer
// writers, which Close stops.
func NewBenchLoopConfig(cfg Config) *BenchLoop {
	w := New(cfg)
	local, remote := transport.Pipe(0)
	w.ctrl = local
	w.id = 1
	b := &BenchLoop{W: w, drain: remote}
	go func() {
		for {
			raw, err := remote.Recv()
			if err != nil {
				return
			}
			proto.PutBuf(raw)
		}
	}()
	return b
}

// Apply feeds one controller message straight into the worker's handler
// on the caller's goroutine.
func (b *BenchLoop) Apply(m proto.Msg) { b.W.handleCtrl(m) }

// Job exposes one job's namespace (created on first use), for assertions
// on per-job scheduler state. Messages without an explicit Job land in
// namespace 0.
func (b *BenchLoop) Job(id ids.JobID) *jstate { return b.W.job(id) }

// busy reports whether any job still has unfinished, runnable or queued
// work.
func (b *BenchLoop) busy() bool {
	for _, js := range b.W.jobList {
		if js.unfin > 0 || js.runnable.n > 0 || len(js.units) > 0 {
			return true
		}
	}
	return false
}

// Drain processes completion events posted by executor goroutines until
// no job has unfinished commands (for callers that do run tasks).
func (b *BenchLoop) Drain() {
	for b.busy() {
		ev := <-b.W.events
		if ev.kind == evDone {
			b.W.handleDone(ev.cmd)
		}
	}
}

// Close tears the loopback down.
func (b *BenchLoop) Close() {
	b.W.closePeers()
	b.drain.Close()
	b.W.ctrl.Close()
}
