package main

import (
	"io"

	"unimem/internal/crypto"
	"unimem/internal/meta"
	"unimem/internal/secmem"
	"unimem/internal/sim"
	"unimem/internal/tracker"
)

// secStore drives secmem and the access tracker exactly as
// unimem.Protected does (its track method), with spans around each call
// when t is set. It also counts the crypto primitives each call implies.
type secStore struct {
	m     *secmem.Memory
	trk   *tracker.Tracker
	nowPs int64 // Protected's modeled clock: one access per 1000 ps
	t     *tracer

	// Primitive calls implied by the ops so far (see count).
	blockMACs, folds, nodeMACs, otps float64
	ops, unitBlocks, verified        float64
}

func newSecStore(image, seed uint64) *secStore {
	return &secStore{m: secmem.New(image, seed), trk: tracker.New(tracker.DefaultConfig())}
}

func (s *secStore) Save(w io.Writer) ([]uint64, error) {
	return s.m.Save(w)
}

func (s *secStore) track(addr uint64) error {
	s.nowPs += 1000
	start := s.t.begin(lTracker)
	dets := s.trk.AccessRange(addr, meta.BlockSize, sim.Time(s.nowPs))
	s.t.end(lTracker, start)
	for _, d := range dets {
		start := s.t.begin(lApply)
		err := s.m.ApplyDetection(d.Chunk, d.Stream)
		s.t.end(lApply, start)
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *secStore) Write(addr uint64, plaintext []byte) error {
	if err := s.track(addr); err != nil {
		return err
	}
	g, verified := s.m.GranOf(addr), s.m.Stats.Verified
	start := s.t.begin(lWrite)
	err := s.m.Write(addr, plaintext)
	s.t.end(lWrite, start)
	s.count(g, s.m.Stats.Verified-verified, true)
	return err
}

func (s *secStore) Read(addr uint64) ([]byte, error) {
	if err := s.track(addr); err != nil {
		return nil, err
	}
	g, verified := s.m.GranOf(addr), s.m.Stats.Verified
	start := s.t.begin(lRead)
	b, err := s.m.Read(addr)
	s.t.end(lRead, start)
	s.count(g, s.m.Stats.Verified-verified, false)
	return b, err
}

// count adds the crypto primitive calls one Read or Write on a unit of
// granularity g makes: verifying the chain (one node MAC per verified
// level) and the unit (a block MAC per member, folded when coarse), then
// for a read one pad to decrypt; for a write a pad per member to decrypt
// and one to re-encrypt, a node MAC per level resealed up to the root, and
// the unit's MAC again. It is a model of secmem's code, hence an estimate.
func (s *secStore) count(g meta.Gran, verified uint64, write bool) {
	if s.t == nil {
		return
	}
	b := float64(g.Blocks())
	fold := 0.0
	if b > 1 {
		fold = b
	}
	s.ops++
	s.unitBlocks += b
	s.verified += float64(verified)
	s.nodeMACs += float64(verified)
	s.blockMACs += b
	s.folds += fold
	if !write {
		s.otps++
		return
	}
	s.otps += 2 * b
	s.nodeMACs += float64(s.m.Geometry().Levels() - g.Level())
	s.blockMACs += b
	s.folds += fold
}

// primitiveNs times each crypto primitive at the functional layer's shapes
// (64B blocks, 8-counter tree lines, 512-MAC folds) and returns ns per call
// of BlockMAC, one NestedMAC fold step, NodeMAC and OTP: the median of five
// batches of 16384 calls each, so one garbage collection cannot skew it.
func primitiveNs(seed uint64) (blockMAC, fold, nodeMAC, otp float64) {
	e := crypto.NewEngine(seed)
	t := newTracer(false)
	var ct [meta.BlockSize]byte
	var ctrs [meta.Arity]uint64
	fines := make([]crypto.MAC, meta.BlocksPerChunk)
	var sink byte
	const calls = 1 << 14
	timeN := func(f func(i int)) float64 {
		var batches []float64
		for b := 0; b < 5; b++ {
			start := t.now()
			for i := 0; i < calls; i++ {
				f(i)
			}
			batches = append(batches, float64(t.now()-start)/calls)
		}
		return median(batches)
	}
	blockMAC = timeN(func(i int) { m := e.BlockMAC(uint64(i)*meta.BlockSize, 1, ct[:]); sink ^= m[0] })
	fold = timeN(func(i int) {
		if i%len(fines) == 0 {
			m := e.NestedMAC(fines)
			sink ^= m[0]
		}
	})
	nodeMAC = timeN(func(i int) { m := e.NodeMAC(uint64(i)*meta.BlockSize, 1, ctrs[:]); sink ^= m[0] })
	otp = timeN(func(i int) { p := e.OTP(uint64(i)*meta.BlockSize, 1); sink ^= p[0] })
	ct[0] = sink
	return blockMAC, fold, nodeMAC, otp
}

// layerMetrics reduces the traced ops into the functional layers' metrics.
// switches is the number of promotions and demotions the ops caused.
func (s *secStore) layerMetrics(m map[string]float64, seed uint64, switches, detections uint64) {
	t := s.t
	m["secmem.read_ns"] = t.perItem(lRead)
	m["secmem.write_ns"] = t.perItem(lWrite)
	m["secmem.apply_detection_ns"] = t.perItem(lApply)
	m["secmem.verified_per_op"] = ratio(s.verified, s.ops)
	m["secmem.unit_blocks_mean"] = ratio(s.unitBlocks, s.ops)
	m["secmem.switches"] = ratio(float64(switches), s.ops)
	m["tracker.calls"] = ratio(float64(t.n[lTracker]), s.ops)
	m["tracker.detections"] = ratio(float64(detections), s.ops)
	m["tracker.ns_per_call"] = t.perItem(lTracker)
	bm, fold, nm, otp := primitiveNs(seed)
	m["crypto.block_mac_ns"] = bm
	m["crypto.nested_fold_ns"] = fold
	m["crypto.node_mac_ns"] = nm
	m["crypto.otp_ns"] = otp
	est := s.blockMACs*bm + s.folds*fold + s.nodeMACs*nm + s.otps*otp
	m["crypto.est_frac"] = ratio(est, float64(t.ns[lRead]+t.ns[lWrite]+t.ns[lApply]))
}
