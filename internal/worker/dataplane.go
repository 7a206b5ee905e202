package worker

import (
	"encoding/binary"
	"sync"

	"nimbus/internal/datastore"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
	"nimbus/internal/stream"
	"nimbus/internal/transport"
)

// This file is the sender side of the streaming data plane. Workers
// exchange data directly — the controller is never on the data path
// (control-plane requirement 2, paper §3.1) — and copy commands use
// asynchronous I/O so they never block a worker thread (§3.4). Three
// disciplines keep that asynchrony bounded:
//
//   - The per-peer queue is byte-accounted and bounded. A send into a full
//     queue does not block the event loop and does not copy anything: the
//     CopySend command parks, holding only its pcmd, and is retried when
//     the writer drains below the low-water mark (evPeerSpace).
//
//   - Objects larger than one chunk stream as DataChunk runs under a
//     credit window granted by the receiver (DataCredit on the reverse
//     path of the same connection), so a slow receiver stalls the writer
//     goroutine, not the event loop, and sender memory stays bounded by
//     the queue cap — the queue holds a reference to the object's buffer,
//     never a second copy.
//
//   - A chunked CopySend completes only after its last chunk is handed to
//     the transport (the writer posts evDone). Until then the object's
//     buffer is shared with the store, which is safe because before sets
//     order any writer of the object after the copy's completion.
//
// The writer drains the queue in runs: small frames that queued up behind
// the head while it was inside its previous write leave as one KindBatch
// frame (one write instead of one per payload), up to one chunk of bytes
// and never past a chunked transfer, so FIFO order holds. A run of one is
// sent as is, keeping Mem's zero-copy hand-off. Nothing waits for a batch
// to fill, so an idle link adds no latency.

// peerItem is one queue entry: a pre-marshaled single frame (small
// payloads, at most one chunk) or a chunked transfer descriptor.
type peerItem struct {
	frame []byte
	xfer  *txXfer
	size  int64
}

// txXfer describes one outbound chunked transfer. hdr carries the routing
// fields every chunk repeats; data is shared with the datastore object.
type txXfer struct {
	hdr  proto.DataChunk
	data []byte
	done *pcmd // CopySend to complete once the last chunk is sent
}

// admission results of peerConn.enqueue.
type admit uint8

const (
	admitOK   admit = iota
	admitFull       // queue over its byte budget; park the sender
	admitDead       // writer exited or queue closed; count a drop
)

// awaitCredit results.
const (
	creditOK      = iota
	creditAborted // receiver aborted the transfer; skip its remaining chunks
	creditClosed  // worker stopping
)

// peerConn is the asynchronous outbound data-plane connection to one peer
// worker: a bounded queue drained by a writer goroutine.
//
// The queue is consumed head-index-first with slot clearing (same
// discipline as the scheduler's runnable ring), so drained entries pin
// nothing; when it empties, head and length reset to reuse the backing
// array.
type peerConn struct {
	w    *Worker
	dst  ids.WorkerID
	addr string

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []peerItem
	head    int
	pending int64 // bytes admitted and not yet released by the writer
	closed  bool
	dead    bool // writer goroutine exited; sends are rejected
	notify  bool // a parked sender wants an evPeerSpace when space frees

	// Credit window for the transfer the writer is currently streaming.
	// The writer sets it (beginXfer) and consumes it (awaitCredit); the
	// creditPump goroutine refills it from the receiver's DataCredit
	// frames and flags XferAbort.
	curXfer uint64
	window  int64
	aborted bool

	// parked holds CopySend commands waiting for queue space. Event-loop
	// confined: only sendPeer appends and retryParked drains.
	parked []*pcmd
}

func newPeerConn(w *Worker, dst ids.WorkerID, addr string) *peerConn {
	pc := &peerConn{w: w, dst: dst, addr: addr}
	pc.cond = sync.NewCond(&pc.mu)
	return pc
}

// enqueue admits one item against the byte budget. An over-budget queue
// rejects with admitFull — unless it is empty, so a single item larger
// than the whole budget still moves. A rejected caller owns the item.
func (pc *peerConn) enqueue(it peerItem) admit {
	pc.mu.Lock()
	if pc.closed || pc.dead {
		pc.mu.Unlock()
		return admitDead
	}
	if pc.pending > 0 && pc.pending+it.size > pc.w.peerQueueBytes {
		pc.notify = true
		pc.mu.Unlock()
		return admitFull
	}
	pc.pending += it.size
	pc.queue = append(pc.queue, it)
	pc.cond.Broadcast()
	pc.mu.Unlock()
	return admitOK
}

// nextRun blocks until the queue holds an item, then pops a run of items
// into run[:0] (reusing its backing array): the head item and, when it is
// a small frame, every small frame queued right behind it, as long as the
// run's frames total at most maxBytes. A chunked transfer always runs
// alone, so small sends and streams leave in FIFO order. It reports false
// once the queue is closed.
func (pc *peerConn) nextRun(run []peerItem, maxBytes int) ([]peerItem, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for pc.head == len(pc.queue) && !pc.closed {
		pc.cond.Wait()
	}
	run = run[:0]
	if pc.head == len(pc.queue) {
		return run, false
	}
	n := 0
	for pc.head < len(pc.queue) {
		it := pc.queue[pc.head]
		if len(run) > 0 && (run[0].xfer != nil || it.xfer != nil || n+len(it.frame) > maxBytes) {
			break
		}
		run = append(run, it)
		n += len(it.frame)
		pc.queue[pc.head] = peerItem{} // do not pin the item once popped
		pc.head++
	}
	if pc.head == len(pc.queue) {
		// Drained: reuse the backing array from the start.
		pc.queue = pc.queue[:0]
		pc.head = 0
	}
	return run, true
}

// release returns an item's bytes to the budget once the writer is done
// with it, waking parked senders through the event loop when the queue
// drains below the low-water mark.
func (pc *peerConn) release(n int64) {
	pc.mu.Lock()
	pc.pending -= n
	post := pc.notify && pc.pending <= pc.w.peerQueueBytes/2
	if post {
		pc.notify = false
	}
	pc.mu.Unlock()
	if post {
		pc.postSpace()
	}
}

func (pc *peerConn) postSpace() {
	select {
	case pc.w.events <- event{kind: evPeerSpace, peer: pc}:
	case <-pc.w.stopped:
	}
}

// flushed reports whether the writer has handed every admitted item to
// the transport, or never will (the queue is closed or its writer dead).
func (pc *peerConn) flushed() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.pending == 0 || pc.closed || pc.dead
}

// close shuts the queue down and recycles whatever it still holds.
func (pc *peerConn) close() {
	pc.mu.Lock()
	pc.closed = true
	pc.drainLocked()
	pc.cond.Broadcast()
	pc.mu.Unlock()
}

// markDead rejects all sends after the writer goroutine exits and flushes
// what it left behind. The evPeerSpace nudge makes parked senders retry
// immediately, resolving them as counted drops instead of waiting forever
// on a queue nobody drains.
func (pc *peerConn) markDead() {
	pc.mu.Lock()
	pc.dead = true
	pc.drainLocked()
	pc.cond.Broadcast()
	pc.mu.Unlock()
	pc.postSpace()
}

func (pc *peerConn) drainLocked() {
	for i := pc.head; i < len(pc.queue); i++ {
		if f := pc.queue[i].frame; f != nil {
			proto.PutBuf(f)
		}
		pc.queue[i] = peerItem{}
	}
	pc.queue = pc.queue[:0]
	pc.head = 0
	pc.pending = 0
}

// beginXfer resets the credit window for a transfer (also after a redial
// restart, discarding credit granted by the previous connection's
// receiver state).
func (pc *peerConn) beginXfer(x uint64) {
	pc.mu.Lock()
	pc.curXfer = x
	pc.window = stream.InitWindow
	pc.aborted = false
	pc.mu.Unlock()
}

// awaitCredit blocks the writer until the receiver's window admits the
// next chunk.
func (pc *peerConn) awaitCredit() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for pc.window <= 0 && !pc.closed && !pc.aborted {
		pc.cond.Wait()
	}
	if pc.closed {
		return creditClosed
	}
	if pc.aborted {
		return creditAborted
	}
	pc.window--
	return creditOK
}

// grant applies a DataCredit. Credit for a transfer that is not current
// (already finished, or not yet started after a redial) is dropped, and
// the accumulated window is clamped so a hostile receiver granting absurd
// credit cannot unbound the sender.
func (pc *peerConn) grant(x uint64, n uint32) {
	pc.mu.Lock()
	if x == pc.curXfer && !pc.aborted {
		pc.window += int64(n)
		if pc.window > stream.MaxWindow {
			pc.window = stream.MaxWindow
		}
		pc.cond.Broadcast()
	}
	pc.mu.Unlock()
}

func (pc *peerConn) abortXfer(x uint64, reason string) {
	pc.mu.Lock()
	hit := x == pc.curXfer && !pc.aborted
	if hit {
		pc.aborted = true
		pc.cond.Broadcast()
	}
	pc.mu.Unlock()
	if hit {
		pc.w.cfg.Logf("worker %s: peer %s aborted transfer %d: %s", pc.w.id, pc.dst, x, reason)
	}
}

// sendPeer routes one CopySend's object to a peer worker, dialing its
// data-plane address on first use. It reports whether the command
// completed synchronously: a payload of at most one chunk completes at
// admission (its frame is snapshotted into the queue), a chunked transfer
// completes when the writer finishes streaming it (evDone), and a send
// into a full queue parks the command until space frees (evPeerSpace).
func (w *Worker) sendPeer(dst ids.WorkerID, snd *pcmd, obj *datastore.Object) bool {
	c := &snd.cmd
	pc, ok := w.peerConns[dst]
	if !ok {
		addr, have := w.peers[dst]
		if !have {
			w.cfg.Logf("worker %s: no data-plane address for peer %s, dropping copy-send %s", w.id, dst, c.ID)
			w.Stats.PeerSendDrops.Add(1)
			return true
		}
		pc = newPeerConn(w, dst, addr)
		w.peerConns[dst] = pc
		w.wg.Add(1)
		go w.peerWriter(pc)
	}
	js := snd.unit.js
	if len(obj.Data) <= w.chunkSize {
		// Small-object fast path: one DataPayload frame, no transfer or
		// credit bookkeeping. The queue owns the encoded frame; the writer
		// transfers it to the transport when possible (Mem) so it is not
		// copied a second time, and recycles it otherwise.
		p := &proto.DataPayload{
			Job:        js.id,
			DstCommand: c.DstCommand,
			Object:     c.Reads[0],
			Logical:    c.Logical,
			Version:    obj.Version,
			Data:       obj.Data,
		}
		frame := proto.MarshalAppend(proto.GetBuf(), p)
		switch pc.enqueue(peerItem{frame: frame, size: int64(len(frame))}) {
		case admitOK:
			w.Stats.CopiesSent.Add(1)
			return true
		case admitFull:
			proto.PutBuf(frame)
			pc.parked = append(pc.parked, snd)
			w.Stats.ParkedSends.Add(1)
			return false
		default:
			proto.PutBuf(frame)
			w.Stats.PeerSendDrops.Add(1)
			return true
		}
	}
	w.xferSeq++
	t := &txXfer{
		hdr: proto.DataChunk{
			Job:        js.id,
			Xfer:       w.xferSeq,
			DstCommand: c.DstCommand,
			Object:     c.Reads[0],
			Logical:    c.Logical,
			Version:    obj.Version,
			Total:      uint64(len(obj.Data)),
		},
		data: obj.Data,
		done: snd,
	}
	switch pc.enqueue(peerItem{xfer: t, size: int64(len(obj.Data))}) {
	case admitOK:
		w.Stats.CopiesSent.Add(1)
		return false
	case admitFull:
		pc.parked = append(pc.parked, snd)
		w.Stats.ParkedSends.Add(1)
		return false
	default:
		w.Stats.PeerSendDrops.Add(1)
		return true
	}
}

// retryParked re-attempts CopySends that parked on a full queue, in
// arrival order, once the writer signals space (or permanent death — then
// they resolve as drops). Runs on the event loop.
func (w *Worker) retryParked(pc *peerConn) {
	parked := pc.parked
	pc.parked = nil
	for _, snd := range parked {
		js := snd.unit.js
		if snd.epoch != js.haltEpoch {
			// The job was halted while the send waited; the epoch path in
			// handleDone discards it without touching flushed state.
			w.handleDone(snd)
			continue
		}
		if w.execSend(js, snd) {
			w.handleDone(snd)
		}
	}
	w.dispatch()
}

// peerWriter drains one peer's queue. It dials with unbounded retry —
// giving up only at worker shutdown — so a peer that is slow to come up
// (or mid-restart) costs latency, not data.
func (w *Worker) peerWriter(pc *peerConn) {
	defer w.wg.Done()
	defer pc.markDead()
	conn, err := transport.DialRetry(w.cfg.Transport, pc.addr, transport.Backoff{}, 0, 0, w.stopped)
	if err != nil {
		return // worker stopping
	}
	w.wg.Add(1)
	go w.creditPump(conn, pc)
	defer func() { conn.Close() }()
	var run []peerItem
	for {
		var ok bool
		run, ok = pc.nextRun(run, w.chunkSize)
		if !ok {
			return
		}
		// A run of one goes out as is, so Mem still takes the frame over
		// without a copy; a longer run goes out as one batch frame.
		it, n := run[0], len(run)
		if n > 1 {
			it.frame, it.size = batchFrame(run)
		}
		clear(run) // do not pin the run's items until the next pop
		if it.xfer == nil {
			alive := w.sendFrame(pc, &conn, it.frame, n)
			pc.release(it.size)
			if !alive {
				return
			}
			continue
		}
		alive := w.sendXfer(pc, &conn, it.xfer)
		pc.release(it.size)
		if it.xfer.done != nil {
			// Deferred CopySend completion: the object's buffer was shared
			// with the store for the duration of the stream; only now may
			// the command complete and unblock writers of the object.
			w.postDone(it.xfer.done)
		}
		if !alive {
			return
		}
	}
}

// batchFrame copies a run of queued frames, in order, into one exact-size
// KindBatch frame — [KindBatch][uvarint n] then the frames — and recycles
// the originals. Each queued frame is one kind-prefixed message, so the
// result is byte for byte what proto.AppendBatch encodes for the run's
// messages, and the receiver's ForEachMsg splits it again. It returns the
// frame and the run's admitted bytes.
func batchFrame(run []peerItem) ([]byte, int64) {
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = byte(proto.KindBatch)
	h := hdr[:1+binary.PutUvarint(hdr[1:], uint64(len(run)))]
	need := len(h)
	var size int64
	for _, it := range run {
		need += len(it.frame)
		size += it.size
	}
	b := proto.GetBuf()
	if cap(b) < need {
		proto.PutBuf(b)
		b = make([]byte, 0, need)
	}
	b = append(b, h...)
	for _, it := range run {
		b = append(b, it.frame...)
		proto.PutBuf(it.frame)
	}
	return b, size
}

// redialPeer replaces a failed connection, retrying until the worker
// stops. Each fresh connection gets its own creditPump (the old one exits
// with its connection).
func (w *Worker) redialPeer(pc *peerConn, connp *transport.Conn) bool {
	(*connp).Close()
	conn, err := transport.DialRetry(w.cfg.Transport, pc.addr, transport.Backoff{}, 0, 0, w.stopped)
	if err != nil {
		return false
	}
	w.Stats.PeerRedials.Add(1)
	*connp = conn
	w.wg.Add(1)
	go w.creditPump(conn, pc)
	return true
}

// sendFrame delivers one pre-marshaled frame carrying n payloads (a batch
// frame carries its whole run), redialing on failure. A frame a failing
// transport consumed (owned) cannot be resent — its n payloads are dropped
// and counted, but the connection still recovers for subsequent traffic.
// Returns false when the worker is stopping.
func (w *Worker) sendFrame(pc *peerConn, connp *transport.Conn, b []byte, n int) bool {
	for {
		owned, err := transport.SendOwned(*connp, b)
		if err == nil {
			if !owned {
				proto.PutBuf(b)
			}
			return true
		}
		if owned {
			w.Stats.PeerSendDrops.Add(uint64(n))
			w.cfg.Logf("worker %s: frame of %d payload(s) to peer %s lost: %v", w.id, n, pc.dst, err)
		}
		if !w.redialPeer(pc, connp) {
			if !owned {
				proto.PutBuf(b)
			}
			return false
		}
		if owned {
			return true
		}
	}
}

// sendXfer streams one object as a run of DataChunk frames under the
// receiver's credit window, optionally flate-compressing each chunk. A
// connection failure mid-transfer redials and restarts from Seq 0: the
// fresh connection starts with fresh receiver state (the partial
// reassembly died with the old connection), so the replay lands cleanly.
// Returns false when the worker is stopping.
func (w *Worker) sendXfer(pc *peerConn, connp *transport.Conn, t *txXfer) bool {
	m := t.hdr
	for {
		pc.beginXfer(t.hdr.Xfer)
		off := 0
		for seq := uint32(0); ; seq++ {
			switch pc.awaitCredit() {
			case creditClosed:
				return false
			case creditAborted:
				return true // receiver refused the rest; the command still completes
			}
			end := off + w.chunkSize
			if end > len(t.data) {
				end = len(t.data)
			}
			raw := t.data[off:end]
			m.Seq = seq
			m.Last = end == len(t.data)
			m.Flags = 0
			m.Raw = raw
			if w.compress {
				if c := stream.Compress(raw); c != nil {
					m.Flags = proto.ChunkCompressed
					m.Raw = c
				}
			}
			buf := proto.MarshalAppend(proto.GetBuf(), &m)
			owned, err := transport.SendOwned(*connp, buf)
			if !owned {
				proto.PutBuf(buf)
			}
			if err != nil {
				if !w.redialPeer(pc, connp) {
					return false
				}
				break // restart the transfer from Seq 0 on the fresh connection
			}
			w.Stats.ChunksSent.Add(1)
			if m.Last {
				w.Stats.XfersSent.Add(1)
				return true
			}
			off = end
		}
	}
}

// creditPump drains the receiver's flow-control frames (DataCredit,
// XferAbort) from the reverse direction of the outbound connection and
// applies them to the writer's window. One pump runs per dialed
// connection and exits with it.
func (w *Worker) creditPump(conn transport.Conn, pc *peerConn) {
	defer w.wg.Done()
	for {
		raw, err := conn.Recv()
		if err != nil {
			return
		}
		err = proto.ForEachMsg(raw, func(msg proto.Msg) error {
			switch m := msg.(type) {
			case *proto.DataCredit:
				pc.grant(m.Xfer, m.Chunks)
			case *proto.XferAbort:
				pc.abortXfer(m.Xfer, m.Reason)
			}
			return nil
		})
		proto.PutBuf(raw)
		if err != nil {
			w.cfg.Logf("worker %s: bad flow-control frame from peer %s: %v", w.id, pc.dst, err)
		}
	}
}
