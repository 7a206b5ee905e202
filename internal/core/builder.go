package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"nimbus/internal/command"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
)

// provKind classifies an entry's provenance for the rebuild diff.
type provKind uint8

const (
	provTask provKind = iota + 1
	provSend
	provRecv
)

// restoreStage is the pseudo stage index of the restoring copies appended
// by the build so that a template's postcondition satisfies its own
// precondition (paper §4.2, optimization 1).
const restoreStage = -1

// Provenance identifies the semantic origin of a template entry,
// independent of its index or worker: which stage/task produced it, or
// which logical object a copy moves. The rebuild diff matches entries
// across placements by provenance so that unchanged entries keep their
// indexes and edits stay proportional to the actual change (paper §4.3:
// a replacement command assigned the same index leaves other commands
// untouched).
type Provenance struct {
	Kind    provKind
	Stage   int32
	Task    int32
	Logical ids.LogicalID
	// From/To disambiguate copies: From is the sending worker (sends
	// only), To the receiving worker.
	From ids.WorkerID
	To   ids.WorkerID
}

// Precond is one worker-template precondition: the worker's replica of the
// logical object must hold the latest version when the template is
// instantiated (paper §4.1).
type Precond struct {
	Logical ids.LogicalID
	Worker  ids.WorkerID
	Object  ids.ObjectID
}

// ObjectEffect summarizes what one template instance does to a logical
// object: how many versions it produces and which workers hold the final
// version. The controller applies effects to its directory at
// instantiation time instead of re-deriving them per task.
type ObjectEffect struct {
	Logical      ids.LogicalID
	Bumps        uint64
	FinalHolders []ids.WorkerID
}

// LedgerEffect summarizes the final ordering state of one physical object
// on one worker after a template instance: the in-template last writer
// (entry index, or -1 if the template only reads it) and the in-template
// readers since that write. Applying these keeps post-template commands'
// before sets correct without per-task bookkeeping.
type LedgerEffect struct {
	Object ids.ObjectID
	// LastWriterIdx is the entry index of the final in-template writer,
	// or -1 to preserve the pre-instance writer.
	LastWriterIdx int32
	Readers       []int32
}

// Effects is the full instantiation effect of an assignment.
type Effects struct {
	Objects []ObjectEffect
	Ledger  map[ids.WorkerID][]LedgerEffect
}

// Instances resolves the stable physical instance of a logical object on a
// worker, allocating one on first use. *flow.Directory implements it for
// on-loop builds; *flow.BuildView implements it for off-loop builds over a
// directory snapshot.
type Instances interface {
	Instance(l ids.LogicalID, w ids.WorkerID) ids.ObjectID
}

// ValidateStage checks that a stage can be recorded into a template under
// the given placement. Every build-time error is shape-dependent, not
// task-dependent (partition-count mismatches, divisibility, fixed-index
// bounds), so validating task 0 of each reference covers the whole stage;
// after ValidateStage succeeds a build of the stage cannot fail.
func ValidateStage(spec *proto.SubmitStage, place Placement) error {
	if len(spec.PerTask) > 0 {
		return fmt.Errorf("core: stage %s has per-task parameters and cannot be templated", spec.Stage)
	}
	if spec.Tasks <= 0 {
		// A degenerate zero-task stage records (and builds) to nothing,
		// matching the live scheduling path.
		return nil
	}
	if _, _, err := TaskAccesses(spec, place, 0); err != nil {
		return err
	}
	if _, err := AnchorWorker(spec, place, 0); err != nil {
		return err
	}
	return nil
}

// taskPlan is one task's resolved placement: what it reads and writes and
// where it runs. Pass A of the build produces one per task, in parallel.
type taskPlan struct {
	reads  []ids.LogicalID
	writes []ids.LogicalID
	worker ids.WorkerID
}

// buildState is the serial (pass B) state of one assignment build.
type buildState struct {
	inst  Instances
	place Placement

	entries  []command.TemplateEntry
	workerOf []ids.WorkerID
	prov     []Provenance

	holders  map[ids.LogicalID]*holderState
	preconds []Precond
	precondS map[precondKey]bool
	slots    int
}

type precondKey struct {
	l ids.LogicalID
	w ids.WorkerID
}

// holderState tracks a logical object's within-template placement: whether
// the template has written it, how many versions it produced, and which
// workers hold the template-current version.
type holderState struct {
	written bool
	bumps   uint64
	holders map[ids.WorkerID]bool
}

// idxLedger mirrors flow.Ledger with entry indexes instead of command IDs.
// Pass C keeps one per worker; per-worker ledgers are disjoint, which is
// what makes the dependency pass shardable.
type idxLedger struct {
	orders map[ids.ObjectID]*idxOrder
}

type idxOrder struct {
	lastWriter int32 // -1: no in-template writer
	readers    []int32
}

func (l *idxLedger) orderOf(o ids.ObjectID) *idxOrder {
	ord, ok := l.orders[o]
	if !ok {
		ord = &idxOrder{lastWriter: -1}
		l.orders[o] = ord
	}
	return ord
}

func (l *idxLedger) read(o ids.ObjectID, idx int32, deps []int32) []int32 {
	ord := l.orderOf(o)
	if ord.lastWriter >= 0 {
		deps = appendUniqueIdx(deps, ord.lastWriter)
	}
	ord.readers = append(ord.readers, idx)
	return deps
}

func (l *idxLedger) write(o ids.ObjectID, idx int32, deps []int32) []int32 {
	ord := l.orderOf(o)
	if ord.lastWriter >= 0 {
		deps = appendUniqueIdx(deps, ord.lastWriter)
	}
	for _, r := range ord.readers {
		if r != idx {
			deps = appendUniqueIdx(deps, r)
		}
	}
	ord.lastWriter = idx
	ord.readers = ord.readers[:0]
	return deps
}

func appendUniqueIdx(deps []int32, idx int32) []int32 {
	for _, d := range deps {
		if d == idx {
			return deps
		}
	}
	return append(deps, idx)
}

// BuildAssignment constructs an Assignment (the controller half of a
// worker-template set plus the controller template's command array) for the
// given stage sequence under a fixed placement. It is a pure function over
// its inputs: inst and place are only read (inst may allocate fresh
// instance IDs), so it can run off the controller's event loop against a
// directory snapshot while the loop keeps serving heartbeats, completions
// and other templates' dispatch.
//
// The build is a three-pass pipeline, sharded where state is disjoint:
//
//	A. resolve every task's accesses and anchor worker (pure over place) —
//	   parallel over tasks;
//	B. lay out the entry array: copy insertion, index assignment, instance
//	   resolution, preconditions and object effects (global holder state) —
//	   serial, but only map lookups per entry;
//	C. derive every entry's before set and the per-worker ledger effects —
//	   parallel over workers, since each entry depends only on its home
//	   worker's index ledger.
//
// par bounds the goroutine pool; par <= 0 uses GOMAXPROCS, par == 1 runs
// fully serially (no goroutines). Output is deterministic and identical
// across par values.
func BuildAssignment(id ids.TemplateID, inst Instances, place Placement, stages []*proto.SubmitStage, par int) (*Assignment, error) {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}

	// Pass A: per-task placement resolution, sharded over the flattened
	// task list.
	total := 0
	offsets := make([]int, len(stages))
	for i, spec := range stages {
		if len(spec.PerTask) > 0 {
			return nil, fmt.Errorf("core: stage %s has per-task parameters and cannot be templated", spec.Stage)
		}
		offsets[i] = total
		total += spec.Tasks
	}
	plans := make([]taskPlan, total)
	var firstErr error
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	shard(total, par, func(lo, hi int) {
		si := sort.Search(len(offsets), func(i int) bool { return offsets[i] > lo }) - 1
		for flat := lo; flat < hi; flat++ {
			for si+1 < len(offsets) && flat >= offsets[si+1] {
				si++
			}
			spec, t := stages[si], flat-offsets[si]
			reads, writes, err := TaskAccesses(spec, place, t)
			if err != nil {
				fail(err)
				return
			}
			w, err := AnchorWorker(spec, place, t)
			if err != nil {
				fail(err)
				return
			}
			plans[flat] = taskPlan{reads: reads, writes: writes, worker: w}
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}

	// Pass B: serial entry layout.
	b := &buildState{
		inst:     inst,
		place:    place,
		entries:  make([]command.TemplateEntry, 0, total+total/4),
		holders:  make(map[ids.LogicalID]*holderState),
		precondS: make(map[precondKey]bool),
	}
	for si, spec := range stages {
		slot := command.NoParamSlot
		if len(spec.Params) > 0 {
			slot = int32(b.slots)
			b.slots++
		}
		stageIdx := int32(si)
		for t := 0; t < spec.Tasks; t++ {
			p := &plans[offsets[si]+t]
			w := p.worker
			// First, materialize any copies the reads require so that copy
			// entries precede the task entry.
			for _, l := range p.reads {
				b.ensureReadable(l, w, stageIdx)
			}
			taskIdx := int32(len(b.entries))
			readObjs := make([]ids.ObjectID, len(p.reads))
			for i, l := range p.reads {
				readObjs[i] = b.inst.Instance(l, w)
			}
			writeObjs := make([]ids.ObjectID, len(p.writes))
			for i, l := range p.writes {
				writeObjs[i] = b.inst.Instance(l, w)
				hs := b.holderOf(l)
				hs.written = true
				hs.bumps++
				for h := range hs.holders {
					delete(hs.holders, h)
				}
				hs.holders[w] = true
			}
			b.append(command.TemplateEntry{
				Index:     taskIdx,
				Kind:      command.Task,
				Function:  spec.Fn,
				Reads:     readObjs,
				Writes:    writeObjs,
				ParamSlot: slot,
				Fixed:     spec.Params,
			}, w, Provenance{Kind: provTask, Stage: stageIdx, Task: int32(t)})
		}
	}
	// Restoring copies: a precondition (l, w) whose logical object the
	// template wrote must end with w holding the final version, so tight
	// loops auto-validate (paper §4.2).
	for _, pc := range b.preconds {
		hs, ok := b.holders[pc.Logical]
		if !ok || !hs.written || hs.holders[pc.Worker] {
			continue
		}
		b.insertCopy(pc.Logical, minHolder(hs.holders), pc.Worker, restoreStage)
		hs.holders[pc.Worker] = true
	}

	perWorker := make(map[ids.WorkerID][]int32)
	for i, w := range b.workerOf {
		perWorker[w] = append(perWorker[w], int32(i))
	}
	workers := make([]ids.WorkerID, 0, len(perWorker))
	for w := range perWorker {
		workers = append(workers, w)
	}
	sort.Slice(workers, func(i, j int) bool { return workers[i] < workers[j] })

	// Pass C: before sets and ledger effects, sharded over workers. Every
	// entry's dependencies come from its home worker's index ledger only,
	// so per-worker goroutines touch disjoint entries and ledgers.
	ledgerEff := make([][]LedgerEffect, len(workers))
	shard(len(workers), par, func(lo, hi int) {
		for wi := lo; wi < hi; wi++ {
			led := &idxLedger{orders: make(map[ids.ObjectID]*idxOrder)}
			for _, idx := range perWorker[workers[wi]] {
				e := &b.entries[idx]
				var deps []int32
				for _, o := range e.Reads {
					deps = led.read(o, idx, deps)
				}
				for _, o := range e.Writes {
					deps = led.write(o, idx, deps)
				}
				e.BeforeIdx = deps
			}
			objs := make([]ids.ObjectID, 0, len(led.orders))
			for o := range led.orders {
				objs = append(objs, o)
			}
			sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
			les := make([]LedgerEffect, 0, len(objs))
			for _, o := range objs {
				ord := led.orders[o]
				les = append(les, LedgerEffect{
					Object:        o,
					LastWriterIdx: ord.lastWriter,
					Readers:       append([]int32(nil), ord.readers...),
				})
			}
			ledgerEff[wi] = les
		}
	})

	eff := Effects{Ledger: make(map[ids.WorkerID][]LedgerEffect, len(workers))}
	for wi, w := range workers {
		eff.Ledger[w] = ledgerEff[wi]
	}
	logicals := make([]ids.LogicalID, 0, len(b.holders))
	for l, hs := range b.holders {
		if hs.written {
			logicals = append(logicals, l)
		}
	}
	sort.Slice(logicals, func(i, j int) bool { return logicals[i] < logicals[j] })
	for _, l := range logicals {
		hs := b.holders[l]
		holders := make([]ids.WorkerID, 0, len(hs.holders))
		for w := range hs.holders {
			holders = append(holders, w)
		}
		sort.Slice(holders, func(i, j int) bool { return holders[i] < holders[j] })
		eff.Objects = append(eff.Objects, ObjectEffect{Logical: l, Bumps: hs.bumps, FinalHolders: holders})
	}

	return &Assignment{
		ID:        id,
		Entries:   b.entries,
		WorkerOf:  b.workerOf,
		Prov:      b.prov,
		PerWorker: perWorker,
		Preconds:  b.preconds,
		Effects:   eff,
		Slots:     b.slots,
		Installed: make(map[ids.WorkerID]bool),
		live:      len(b.entries),
	}, nil
}

// shard splits [0, n) into at most par contiguous chunks and runs fn over
// them, inline when par == 1 or the range is trivial.
func shard(n, par int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + par - 1) / par
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func (b *buildState) holderOf(l ids.LogicalID) *holderState {
	hs, ok := b.holders[l]
	if !ok {
		hs = &holderState{holders: make(map[ids.WorkerID]bool)}
		b.holders[l] = hs
	}
	return hs
}

// ensureReadable prepares logical object l for a read at worker w. If the
// template has already written l, the template-current version must reach
// w, so a copy pair is inserted when missing. Otherwise the read is an
// entry read: it becomes a worker-template precondition — patches, not
// cached copies, handle entry-time data movement (paper §2.4).
func (b *buildState) ensureReadable(l ids.LogicalID, w ids.WorkerID, stage int32) {
	hs, ok := b.holders[l]
	if !ok || !hs.written {
		key := precondKey{l, w}
		if !b.precondS[key] {
			b.precondS[key] = true
			b.preconds = append(b.preconds, Precond{
				Logical: l,
				Worker:  w,
				Object:  b.inst.Instance(l, w),
			})
		}
		return
	}
	if hs.holders[w] {
		return
	}
	b.insertCopy(l, minHolder(hs.holders), w, stage)
	hs.holders[w] = true
}

func minHolder(holders map[ids.WorkerID]bool) ids.WorkerID {
	var best ids.WorkerID
	for w := range holders {
		if best == ids.NoWorker || w < best {
			best = w
		}
	}
	return best
}

// insertCopy appends a send/receive pair moving the template-current
// version of l from src to dst. Before sets are filled by pass C.
func (b *buildState) insertCopy(l ids.LogicalID, src, dst ids.WorkerID, stage int32) (sendIdx, recvIdx int32) {
	srcObj := b.inst.Instance(l, src)
	dstObj := b.inst.Instance(l, dst)
	sendIdx = int32(len(b.entries))
	recvIdx = sendIdx + 1

	b.append(command.TemplateEntry{
		Index:     sendIdx,
		Kind:      command.CopySend,
		Reads:     []ids.ObjectID{srcObj},
		ParamSlot: command.NoParamSlot,
		Logical:   l,
		DstWorker: dst,
		DstIdx:    recvIdx,
	}, src, Provenance{Kind: provSend, Stage: stage, Logical: l, From: src, To: dst})

	b.append(command.TemplateEntry{
		Index:     recvIdx,
		Kind:      command.CopyRecv,
		Writes:    []ids.ObjectID{dstObj},
		ParamSlot: command.NoParamSlot,
		Logical:   l,
	}, dst, Provenance{Kind: provRecv, Stage: stage, Logical: l, To: dst})
	return sendIdx, recvIdx
}

func (b *buildState) append(e command.TemplateEntry, w ids.WorkerID, p Provenance) {
	b.entries = append(b.entries, e)
	b.workerOf = append(b.workerOf, w)
	b.prov = append(b.prov, p)
}

// Builder accumulates a stage sequence and builds it into an Assignment.
// It is the recording-time facade over BuildAssignment: AddStage validates
// each stage as the controller records it (so the driver hears about a
// non-templatable stage at submission time), and Finalize runs the full
// sharded construction.
type Builder struct {
	inst   Instances
	place  Placement
	stages []*proto.SubmitStage
}

// NewBuilder returns a Builder resolving object instances from inst and
// placement through place.
func NewBuilder(inst Instances, place Placement) *Builder {
	return &Builder{inst: inst, place: place}
}

// AddStage appends one stage to the template under construction after
// validating it can be templated under the builder's placement.
func (b *Builder) AddStage(spec *proto.SubmitStage) error {
	if err := ValidateStage(spec, b.place); err != nil {
		return err
	}
	b.stages = append(b.stages, spec)
	return nil
}

// Finalize builds the accumulated stages into an Assignment, sharded over
// GOMAXPROCS goroutines. Stages were validated by AddStage, so the build
// cannot fail.
func (b *Builder) Finalize(id ids.TemplateID) *Assignment {
	a, err := BuildAssignment(id, b.inst, b.place, b.stages, 0)
	if err != nil {
		// Unreachable: every build-time error is caught by AddStage's
		// ValidateStage (errors are shape-, not task-dependent).
		panic(fmt.Sprintf("core: validated build failed: %v", err))
	}
	return a
}
