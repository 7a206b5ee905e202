package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nimbus/internal/fn"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
	"nimbus/internal/transport"
)

// Tracing records only from the benchmark's own files, around its calls
// into each layer: spans around driver and controller calls (guard.call,
// epoch.request), a transport wrapper around every connection, and
// registry wrappers around every application function.

// span is one timed call. Request spans (one closed-loop request) have
// parent 0; call spans name their request as parent through req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRec keeps spans in memory until the run ends.
type spanRec struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
	reqID map[int64]int64 // request id -> its span id
}

func (r *spanRec) enable(on bool) { r.on.Store(on) }

// add records one span; a request span (name starting "request.")
// becomes the parent of the call spans sharing its req.
func (r *spanRec) add(name string, req int64, start, end time.Time) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.reqID == nil {
		r.reqID = make(map[int64]int64)
	}
	id := int64(len(r.spans) + 1)
	s := span{ID: id, Req: req, Name: name, Start: start.UnixNano(), End: end.UnixNano()}
	if strings.HasPrefix(name, "request.") {
		r.reqID[req] = id
	}
	r.spans = append(r.spans, s)
}

// durations returns the durations of the spans named name.
func (r *spanRec) durations(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var d []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d = append(d, time.Duration(s.End-s.Start))
		}
	}
	return d
}

// write stores the spans as JSON lines, resolving each call span's parent
// to its request span (recorded after its children, when it ended).
func (r *spanRec) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if p := r.reqID[s.Req]; p != s.ID {
			s.Parent = p
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ring keeps the most recent durations recorded into it, lock-free.
type ring struct {
	n   atomic.Uint64
	sum atomic.Int64
	buf [1 << 16]atomic.Int64
}

func (r *ring) add(d time.Duration) {
	i := r.n.Add(1) - 1
	r.buf[i%uint64(len(r.buf))].Store(int64(d))
	r.sum.Add(int64(d))
}

func (r *ring) values() []time.Duration {
	n := r.n.Load()
	if n > uint64(len(r.buf)) {
		n = uint64(len(r.buf))
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(r.buf[i].Load())
	}
	return out
}

// wireRec is the transport layer's recorder: frames, bytes and send
// times over every wrapped connection, plus a sample of frames for the
// codec replay.
type wireRec struct {
	on     atomic.Bool
	frames atomic.Uint64
	bytes  atomic.Uint64
	send   ring

	mu       sync.Mutex
	captured [][]byte
}

const (
	captureEvery = 8        // capture one frame in captureEvery
	captureMax   = 4096     // frames kept for the codec replay
	captureBytes = 64 << 10 // larger frames are data, not control
)

func newWireRec() *wireRec { return &wireRec{} }

func (w *wireRec) enable(on bool) {
	if w != nil {
		w.on.Store(on)
	}
}

// before is called with a frame about to be sent: it may keep a copy.
func (w *wireRec) before(b []byte) bool {
	if !w.on.Load() {
		return false
	}
	n := w.frames.Add(1)
	w.bytes.Add(uint64(len(b)))
	if n%captureEvery == 0 && len(b) <= captureBytes {
		w.mu.Lock()
		if len(w.captured) < captureMax {
			w.captured = append(w.captured, append([]byte(nil), b...))
		}
		w.mu.Unlock()
	}
	return true
}

// wrap returns tr with every dialed and accepted connection wrapped.
func (w *wireRec) wrap(tr transport.Transport) transport.Transport {
	if w == nil {
		return tr
	}
	return &tracedTransport{inner: tr, rec: w}
}

type tracedTransport struct {
	inner transport.Transport
	rec   *wireRec
}

func (t *tracedTransport) Dial(addr string) (transport.Conn, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return t.rec.conn(c), nil
}

func (t *tracedTransport) Listen(addr string) (transport.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: l, rec: t.rec}, nil
}

type tracedListener struct {
	transport.Listener
	rec *wireRec
}

func (l *tracedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.rec.conn(c), nil
}

// conn wraps c. A connection that takes buffer ownership keeps doing so
// through the wrapper, and one that copies keeps copying: the wrapper
// must not move a traced run off the path the untraced run takes.
func (w *wireRec) conn(c transport.Conn) transport.Conn {
	tc := &tracedConn{Conn: c, rec: w}
	if os, ok := c.(transport.OwnedSender); ok {
		return &tracedOwnedConn{tracedConn: tc, owned: os}
	}
	return tc
}

type tracedConn struct {
	transport.Conn
	rec *wireRec
}

func (c *tracedConn) Send(b []byte) error {
	if !c.rec.before(b) {
		return c.Conn.Send(b)
	}
	start := time.Now()
	err := c.Conn.Send(b)
	c.rec.send.add(time.Since(start))
	return err
}

type tracedOwnedConn struct {
	*tracedConn
	owned transport.OwnedSender
}

func (c *tracedOwnedConn) SendOwned(b []byte) error {
	if !c.rec.before(b) {
		return c.owned.SendOwned(b)
	}
	start := time.Now()
	err := c.owned.SendOwned(b)
	c.rec.send.add(time.Since(start))
	return err
}

// codecReplay decodes and re-encodes the captured frames through proto's
// public codec and returns the mean decode and encode time per frame.
func (w *wireRec) codecReplay() (decodeNs, encodeNs float64) {
	w.mu.Lock()
	frames := w.captured
	w.mu.Unlock()
	type decoded struct {
		msgs  []proto.Msg
		batch bool
	}
	var ok [][]byte
	var dec []decoded
	for _, f := range frames {
		var d decoded
		d.batch = len(f) > 0 && proto.MsgKind(f[0]) == proto.KindBatch
		if proto.ForEachMsg(f, func(m proto.Msg) error { d.msgs = append(d.msgs, m); return nil }) == nil && len(d.msgs) > 0 {
			ok = append(ok, f)
			dec = append(dec, d)
		}
	}
	if len(ok) == 0 {
		return 0, 0
	}
	const minTime = 50 * time.Millisecond
	var n int
	start := time.Now()
	for time.Since(start) < minTime {
		for _, f := range ok {
			if err := proto.ForEachMsg(f, func(proto.Msg) error { return nil }); err != nil {
				panic(err) // decoded once above; the codec is deterministic
			}
		}
		n += len(ok)
	}
	decodeNs = float64(time.Since(start).Nanoseconds()) / float64(n)
	buf := proto.GetBuf()
	n = 0
	start = time.Now()
	for time.Since(start) < minTime {
		for _, d := range dec {
			if d.batch {
				buf = proto.AppendBatch(buf[:0], d.msgs)
			} else {
				buf = proto.MarshalAppend(buf[:0], d.msgs[0])
			}
		}
		n += len(dec)
	}
	encodeNs = float64(time.Since(start).Nanoseconds()) / float64(n)
	proto.PutBuf(buf)
	return decodeNs, encodeNs
}

// fnRec is the function layer's recorder: per-function task times.
type fnRec struct {
	on  atomic.Bool
	all ring
	mu  sync.Mutex
	by  map[string]*ring
}

func newFnRec() *fnRec { return &fnRec{by: make(map[string]*ring)} }

func (r *fnRec) enable(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

func (r *fnRec) ringFor(name string) *ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	rg := r.by[name]
	if rg == nil {
		rg = &ring{}
		r.by[name] = rg
	}
	return rg
}

// register adds f to reg under id and name, wrapped to time every task
// when r is non-nil. The wrapper keeps the function's ID and name.
func (r *fnRec) register(reg *fn.Registry, id ids.FunctionID, name string, f fn.Func) {
	if r != nil {
		inner, rg := f, r.ringFor(name)
		f = func(c *fn.Ctx) error {
			if !r.on.Load() {
				return inner(c)
			}
			start := time.Now()
			err := inner(c)
			d := time.Since(start)
			rg.add(d)
			r.all.add(d)
			return err
		}
	}
	reg.MustRegister(id, name, f)
}

// registerFrom re-registers the functions src holds under the given IDs
// into reg, wrapped when r is non-nil.
func (r *fnRec) registerFrom(reg, src *fn.Registry, fids ...ids.FunctionID) {
	for _, id := range fids {
		r.register(reg, id, src.Name(id), src.Lookup(id))
	}
}

// names returns the registered function names, sorted. Every workload
// registers the same functions, so every traced run reports the same
// per-function metrics.
func (r *fnRec) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n []string
	for name := range r.by {
		n = append(n, name)
	}
	sort.Strings(n)
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// layerMetrics computes the per-layer metrics from the traced epochs and
// the tracing overhead per end-to-end metric from both kinds.
func layerMetrics(samples []sample, g *guard) []metric {
	var traced, plain []sample
	for _, s := range samples {
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	d := func(key string) float64 {
		var v float64
		for _, s := range traced {
			v += s.delta(key)
		}
		return v
	}
	var wall time.Duration
	var ops, slots float64
	var frames, bytes, sendNs, fnNs float64
	var send, fnAll []time.Duration
	fnNames := traced[0].fns.names()
	byFn := map[string][]time.Duration{}
	var decNs, encNs float64
	for _, s := range traced {
		wall += s.wall
		ops += float64(s.ops)
		slots = float64(s.slots)
		frames += float64(s.wire.frames.Load())
		bytes += float64(s.wire.bytes.Load())
		send = append(send, s.wire.send.values()...)
		sendNs += float64(s.wire.send.sum.Load())
		fnNs += float64(s.fns.all.sum.Load())
		fnAll = append(fnAll, s.fns.all.values()...)
		for _, name := range fnNames {
			byFn[name] = append(byFn[name], s.fns.ringFor(name).values()...)
		}
		dn, en := s.wire.codecReplay()
		decNs += dn / float64(len(traced))
		encNs += en / float64(len(traced))
	}
	tasks := d("worker.TasksRun")
	wallNs := float64(wall.Nanoseconds())
	sp := func(name string) []time.Duration { return g.spans.durations(name) }
	templates := d("controller.TemplatesBuilt")
	migrations := float64(len(sp("controller.Migrate")))

	m := []metric{
		{"driver.instantiate_us_p50", us(quantile(sp("driver.Instantiate"), 0.5)), "us"},
		{"driver.barrier_us_p50", us(quantile(sp("driver.Barrier"), 0.5)), "us"},
		{"driver.get_rtt_us_p50", us(quantile(sp("driver.Get"), 0.5)), "us"},
		{"driver.put_ms_p50", us(quantile(sp("driver.Put"), 0.5)) / 1e3, "ms"},
		{"driver.admit_us_p50", us(quantile(sp("driver.Connect"), 0.5)), "us"},
		{"driver.admit_us_p99", us(quantile(sp("driver.Connect"), 0.99)), "us"},
		{"driver.close_us_p50", us(quantile(sp("driver.Close"), 0.5)), "us"},

		{"controller.instantiate_ns_per_task", ratio(d("controller.InstantiateNanos"), tasks), "ns"},
		{"controller.frames_per_instantiation", ratio(d("controller.FramesToWorkers"), d("controller.Instantiations")), "count"},
		{"controller.bytes_per_task", ratio(d("controller.BytesToWorkers"), tasks), "B"},
		{"controller.auto_validation_ratio", ratio(d("controller.AutoValidations"), d("controller.AutoValidations")+d("controller.Validations")), "ratio"},
		{"controller.patch_cache_hit_ratio", ratio(d("controller.PatchCacheHits"), d("controller.PatchCacheHits")+d("controller.PatchesBuilt")), "ratio"},
		{"controller.migrate_us_p50", us(quantile(sp("controller.Migrate"), 0.5)), "us"},
		{"controller.edits_per_migration", ratio(d("controller.EditsSent"), migrations), "count"},
		{"controller.record_us_per_template", ratio(d("controller.RecordNanos"), templates) / 1e3, "us"},
		{"controller.build_us_per_template", ratio(d("controller.BuildNanos"), templates) / 1e3, "us"},
		{"controller.finalize_us_per_template", ratio(d("controller.FinalizeNanos"), templates) / 1e3, "us"},
		{"controller.build_retry_ratio", ratio(d("controller.BuildRetries"), templates), "ratio"},
		{"controller.admission_us_p99", admissionP99(traced), "us"},
		{"controller.slot_rebalances_per_job", ratio(d("controller.SlotRebalances"), d("controller.JobsAdmitted")), "count"},

		{"worker.instantiate_ns_per_cmd", ratio(d("worker.InstantiateNanos"), d("worker.InstantiateCmds")), "ns"},
		{"worker.units_reused_ratio", ratio(d("worker.UnitsReused"), d("worker.Activations")), "ratio"},
		{"worker.install_us_per_template", ratio(d("worker.InstallNanos"), d("worker.TemplatesSeen")) / 1e3, "us"},
		{"worker.compile_us_per_template", ratio(d("worker.CompileNanos"), d("worker.TemplateCompiles")) / 1e3, "us"},
		{"worker.quota_deferrals_per_task", ratio(d("worker.QuotaDeferrals"), tasks), "count"},

		{"dataplane.xfers_per_round", ratio(d("worker.XfersRecv"), ops), "count"},
		{"dataplane.chunks_per_xfer", ratio(d("worker.ChunksRecv"), d("worker.XfersRecv")), "count"},
		{"dataplane.spills", d("worker.Spills"), "count"},
		{"dataplane.parked_sends", d("worker.ParkedSends"), "count"},
		{"dataplane.peer_send_drops", d("worker.PeerSendDrops"), "count"},
		{"dataplane.rx_aborts", d("worker.RxAborts"), "count"},

		{"transport.frames_per_task", ratio(frames, tasks), "count"},
		{"transport.bytes_per_frame", ratio(bytes, frames), "B"},
		{"transport.send_us_p50", us(quantile(send, 0.5)), "us"},
		{"transport.send_us_p99", us(quantile(send, 0.99)), "us"},

		{"codec.decode_ns_per_frame", decNs, "ns"},
		{"codec.encode_ns_per_frame", encNs, "ns"},

		{"fn.task_us_p50", us(quantile(fnAll, 0.5)), "us"},
		{"fn.busy_share", ratio(fnNs, wallNs*slots), "ratio"},
	}
	for _, name := range fnNames {
		m = append(m, metric{"fn.task_us_p50." + strings.ReplaceAll(name, "/", "-"), us(quantile(byFn[name], 0.5)), "us"})
	}
	m = append(m,
		metric{"runtime.gc_pause_ms_total", d("runtime.PauseTotalNs") / 1e6, "ms"},
		metric{"runtime.gc_cycles_per_op", ratio(d("runtime.NumGC"), ops), "count"},
		metric{"runtime.alloc_bytes_per_op", ratio(d("runtime.TotalAlloc"), ops), "B"},
		metric{"runtime.cpu_util", ratio(d("rusage.cpu_ns"), wallNs*float64(runtime.NumCPU())), "ratio"},
	)

	// Per-task costs along the blocking chain, as each layer's own
	// counters or spans account them, beside the measured wall and CPU
	// time per task. The driver's share is its Instantiate calls (encode
	// and send; Barrier time is waiting, not cost). The residual is wall
	// time no layer accounts for: goroutine hand-offs, receive-side
	// syscalls, scheduler wake-ups. Layers that run in parallel (function
	// slots, per-worker sends) can sum past the wall time, which makes the
	// residual negative: the sum is a cost account, not a critical path.
	perTask := func(ns float64) float64 { return ratio(ns, tasks) }
	chain := []metric{
		{"breakdown.driver_ns_per_task", perTask(sumNs(sp("driver.Instantiate"))), "ns"},
		{"breakdown.controller_ns_per_task", perTask(d("controller.InstantiateNanos")), "ns"},
		{"breakdown.transport_ns_per_task", perTask(sendNs), "ns"},
		{"breakdown.codec_ns_per_task", ratio(frames, tasks) * (decNs + encNs), "ns"},
		{"breakdown.worker_ns_per_task", perTask(d("worker.InstantiateNanos")), "ns"},
		{"breakdown.fn_ns_per_task", perTask(fnNs), "ns"},
	}
	var explained float64
	for _, c := range chain {
		explained += c.value
	}
	wallPerTask := ratio(wallNs, tasks)
	m = append(m, chain...)
	m = append(m,
		metric{"breakdown.wall_ns_per_task", wallPerTask, "ns"},
		metric{"breakdown.cpu_ns_per_task", perTask(d("rusage.cpu_ns")), "ns"},
		metric{"breakdown.residual_ns_per_task", wallPerTask - explained, "ns"},
	)

	// Tracing overhead: traced minus untraced, per end-to-end metric.
	tm := endToEnd(traced, g)
	for i, u := range endToEnd(plain, g) {
		t := tm[i]
		m = append(m, metric{"tracing.overhead." + u.name, t.value - u.value, u.unit})
	}
	return m
}

func sumNs(d []time.Duration) float64 {
	var s float64
	for _, x := range d {
		s += float64(x)
	}
	return s
}

// admissionP99 is the controller's own admission p99 (FrontDoorStats,
// server side), taken at the end of each traced measured phase.
func admissionP99(traced []sample) float64 {
	var v []float64
	for _, s := range traced {
		v = append(v, s.admitP99)
	}
	return median(v)
}
