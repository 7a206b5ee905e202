package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"nimbus/internal/driver"
	"nimbus/internal/fn"
)

// shuffle-ingest: the driver puts one fresh partition per round and a
// template rewrites every partition in place, then pulls them all into
// one task, so the data plane moves most of the bytes while the control
// plane sends one small block.
const (
	shWorkers = 4
	shSlots   = 2
	shParts   = 8
	shBytes   = 4 << 20
	shWarmup  = 3 // rounds before measuring
	shBlock   = "perfbench/shuffle"
)

type shuffleSuite struct{ seed int64 }

func newShuffle(seed int64) suite { return shuffleSuite{seed} }

func (s shuffleSuite) epoch(i int) workload {
	return &shuffle{seed: uint64(s.seed)<<16 ^ uint64(i)<<8}
}

func (shuffleSuite) finalCheck(*guard) error { return nil }

type shuffle struct {
	seed  uint64
	c     *cluster
	d     *driver.Driver
	x, y  driver.Var
	buf   []byte
	round uint64
	// The driver's model of every partition: the seed of its last Put and
	// how many map passes have rewritten it since.
	putSeed [shParts]uint64
	passes  [shParts]int
}

func (w *shuffle) setup(e *epoch) error {
	c, err := memCluster(e.wire, shWorkers, shSlots, newRegistry(e.fns))
	if err != nil {
		return err
	}
	w.c = c
	e.attach(c.nodes)
	if w.d, err = c.connect(e, 0, 0, c.tr, driver.Opts{Name: "shuffle-ingest"}); err != nil {
		return err
	}
	w.buf = make([]byte, shBytes)
	d := w.d
	if err := e.g.call(0, "record", 0, func() error {
		var err error
		if w.x, err = d.DefineVariable("x", shParts); err != nil {
			return err
		}
		if w.y, err = d.DefineVariable("y", 1); err != nil {
			return err
		}
		for p := 0; p < shParts; p++ {
			if err := w.put(p); err != nil {
				return err
			}
		}
		if err := d.BeginTemplate(shBlock); err != nil {
			return err
		}
		if err := d.Submit(mapID, shParts, nil, w.x.Read(), w.x.Write()); err != nil {
			return err
		}
		if err := d.Submit(sizesID, 1, nil, w.x.ReadGrouped(), w.y.WriteShared()); err != nil {
			return err
		}
		if err := d.EndTemplate(shBlock); err != nil {
			return err
		}
		w.mapped()
		return d.Barrier()
	}); err != nil {
		return err
	}
	for i := 0; i < shWarmup; i++ {
		if err := w.roundTrip(e, 0); err != nil {
			return err
		}
	}
	return nil
}

// put fills partition p with fresh seeded bytes and puts it.
func (w *shuffle) put(p int) error {
	w.round++
	s := w.seed + w.round
	fill(w.buf, s)
	w.putSeed[p], w.passes[p] = s, 0
	return w.d.Put(w.x, p, w.buf)
}

func (w *shuffle) mapped() {
	for p := range w.passes {
		w.passes[p]++
	}
}

// roundTrip is one round: put the next partition round-robin, run the
// template, wait for it.
func (w *shuffle) roundTrip(e *epoch, req int64) error {
	g := e.g
	p := int(w.round % shParts)
	if err := g.call(0, "driver.Put", req, func() error { return w.put(p) }); err != nil {
		return err
	}
	if err := g.call(0, "driver.Instantiate", req, func() error { return w.d.Instantiate(shBlock) }); err != nil {
		return err
	}
	w.mapped()
	return g.call(0, "driver.Barrier", req, w.d.Barrier)
}

func (w *shuffle) measure(e *epoch, until time.Time) error {
	for time.Now().Before(until) {
		if err := e.request(0, "request.round", func(req int64) error { return w.roundTrip(e, req) }); err != nil {
			return err
		}
		e.addOps(1)
	}
	return nil
}

// check runs the checksum function over a grouped read of every
// partition and compares it with the driver's model of their contents.
func (w *shuffle) check(e *epoch) error {
	var got []byte
	if err := e.g.call(0, "driver.Get", 0, func() error {
		if err := w.d.Submit(checksumID, 1, nil, w.x.ReadGrouped(), w.y.WriteShared()); err != nil {
			return err
		}
		var err error
		got, err = w.d.Get(w.y, 0)
		return err
	}); err != nil {
		return err
	}
	h := fnv.New64a()
	for p := 0; p < shParts; p++ {
		fill(w.buf, w.putSeed[p])
		for i := 0; i < w.passes[p]; i++ {
			rewrite(w.buf)
		}
		h.Write(w.buf)
	}
	if len(got) != 8 || binary.LittleEndian.Uint64(got) != h.Sum64() {
		return fmt.Errorf("checksum over the partitions is %x, want %016x", got, h.Sum64())
	}
	return nil
}

func (w *shuffle) stop() {
	if w.d != nil {
		w.d.Close()
	}
	if w.c != nil {
		w.c.stop()
	}
}

// fill writes a splitmix64 stream seeded with s into b.
func fill(b []byte, s uint64) {
	for i := 0; i+8 <= len(b); i += 8 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(b[i:], z^z>>31)
	}
}

// rewrite is the map pass: one LCG step on every 8-byte word.
func rewrite(b []byte) {
	for i := 0; i+8 <= len(b); i += 8 {
		v := binary.LittleEndian.Uint64(b[i:])
		binary.LittleEndian.PutUint64(b[i:], v*6364136223846793005+1442695040888963407)
	}
}

// mapPartition rewrites its partition in place.
func mapPartition(c *fn.Ctx) error {
	rewrite(c.WriteBuf(0))
	return nil
}

// sumSizes is the round's reduce: it pulls every partition and writes
// their total size.
func sumSizes(c *fn.Ctx) error {
	var n uint64
	for i := 0; i < c.NumReads(); i++ {
		n += uint64(len(c.Read(i)))
	}
	c.SetWrite(0, binary.LittleEndian.AppendUint64(nil, n))
	return nil
}

// checksum writes the FNV-1a hash of its reads, in order.
func checksum(c *fn.Ctx) error {
	h := fnv.New64a()
	for i := 0; i < c.NumReads(); i++ {
		h.Write(c.Read(i))
	}
	c.SetWrite(0, binary.LittleEndian.AppendUint64(nil, h.Sum64()))
	return nil
}
