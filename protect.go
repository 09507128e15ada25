package unimem

import (
	"fmt"
	"io"

	"unimem/internal/meta"
	"unimem/internal/secmem"
	"unimem/internal/tracker"
)

// BlockSize is the finest protection granularity (one cacheline).
const BlockSize = meta.BlockSize

// ChunkSize is the coarsest granularity and the granularity-tracking unit.
const ChunkSize = meta.ChunkSize

// Gran is a protection granularity: 64B, 512B, 4KB or 32KB.
type Gran = meta.Gran

// The four granularity candidates of the multi-granular design.
const (
	Gran64  = meta.Gran64
	Gran512 = meta.Gran512
	Gran4K  = meta.Gran4K
	Gran32K = meta.Gran32K
)

// Protection errors surfaced by reads of a corrupted image.
var (
	// ErrMAC reports tampered or spliced data.
	ErrMAC = secmem.ErrMAC
	// ErrTree reports counter tampering or replay (stale snapshots).
	ErrTree = secmem.ErrTree
)

// Protected is a functionally protected memory image: counter-mode
// encrypted, MAC-authenticated, replay-protected by an 8-ary integrity
// tree, with multi-granular protection units per the paper's design.
//
// It is not safe for concurrent use; wrap with a mutex if shared.
type Protected struct {
	mem *secmem.Memory
	trk *tracker.Tracker
	now int64
}

// NewProtected creates a protected image of size bytes (a multiple of
// 32KB), keyed from seed. All regions start fine-grained (64B).
func NewProtected(size uint64, seed uint64) *Protected {
	return &Protected{
		mem: secmem.New(size, seed),
		trk: tracker.New(tracker.DefaultConfig()),
	}
}

// Write stores one aligned 64B block of plaintext. Writes into a
// coarse-grained unit re-encrypt the unit under a fresh shared counter. If
// the access triggers a granularity switch that fails verification, Write
// returns that error and does not write.
func (p *Protected) Write(addr uint64, plaintext []byte) error {
	if err := p.track(addr); err != nil {
		return err
	}
	return p.mem.Write(addr, plaintext)
}

// Read fetches and verifies one aligned 64B block, returning its
// plaintext. It fails with ErrMAC or ErrTree when the off-chip image was
// corrupted, including when the granularity switch the access triggers
// fails verification; then it does not read.
func (p *Protected) Read(addr uint64) ([]byte, error) {
	if err := p.track(addr); err != nil {
		return nil, err
	}
	return p.mem.Read(addr)
}

// track feeds the built-in access tracker; detections adjust granularity
// automatically, mirroring the hardware's dynamic management.
func (p *Protected) track(addr uint64) error {
	p.now += 1000 // one access per modeled cycle is enough for detection
	return p.apply(p.trk.AccessRange(addr, meta.BlockSize, simTime(p.now)))
}

// apply switches granularity for each detection and returns the first
// switch that fails verification. The functional layer applies detections
// eagerly; the timing layer models the lazy variant.
func (p *Protected) apply(dets []tracker.Detection) error {
	for _, det := range dets {
		if err := p.mem.ApplyDetection(det.Chunk, det.Stream); err != nil {
			return fmt.Errorf("unimem: granularity switch of chunk %d: %w", det.Chunk, err)
		}
	}
	return nil
}

// GranOf reports the current protection granularity covering addr.
func (p *Protected) GranOf(addr uint64) Gran { return p.mem.GranOf(addr) }

// Promote raises count 512B partitions starting at partition first of the
// given 32KB chunk to stream (coarse) granularity.
func (p *Protected) Promote(chunk uint64, first, count int) error {
	return p.mem.Promote(chunk, first, count)
}

// Demote lowers partitions back to fine granularity.
func (p *Protected) Demote(chunk uint64, first, count int) error {
	return p.mem.Demote(chunk, first, count)
}

// Snapshot captures all off-chip state (ciphertext, MACs, counters, tree
// nodes) — everything an attacker with physical memory access controls.
func (p *Protected) Snapshot() *Snapshot { return &Snapshot{s: p.mem.Snapshot()} }

// Restore overwrites off-chip state with a snapshot, modelling a replay
// attack; on-chip roots are untouched, so subsequent reads detect it.
func (p *Protected) Restore(s *Snapshot) { p.mem.Replay(s.s) }

// TamperData flips one stored ciphertext bit at addr (attack model). It
// reports whether the mutation landed (always true for data).
func (p *Protected) TamperData(addr uint64) bool { return p.mem.TamperData(addr) }

// TamperMAC flips one stored MAC bit guarding addr (attack model). It
// reports whether the mutation landed (always true for MACs).
func (p *Protected) TamperMAC(addr uint64) bool { return p.mem.TamperMAC(addr) }

// TamperCounter bumps the stored counter guarding addr without resealing
// the tree (attack model). It reports false when the guarding counter
// lives on chip and is out of the attacker's reach.
func (p *Protected) TamperCounter(addr uint64) bool { return p.mem.TamperCounter(addr) }

// Verify checks integrity of the block at addr without returning data.
func (p *Protected) Verify(addr uint64) error { return p.mem.Check(addr) }

// Snapshot is an opaque capture of off-chip memory state.
type Snapshot struct {
	s *secmem.Snapshot
}

// FlushDetection force-evicts all access-tracker windows so pending
// granularity detections apply immediately (hardware does this with
// window-lifetime expiry; tests and demos use it to avoid waiting). It
// returns the first switch that fails verification.
func (p *Protected) FlushDetection() error { return p.apply(p.trk.Flush()) }

// Save writes the off-chip image (ciphertext, MACs, tree, granularity
// table) to w and returns the on-chip root counters; persist the roots in
// trusted (sealed) storage — an image replayed with stale roots will not
// load.
func (p *Protected) Save(w io.Writer) (roots []uint64, err error) {
	return p.mem.Save(w)
}

// LoadProtected reconstructs a protected image saved by Save, keyed from
// the same seed and authenticated against the trusted roots.
func LoadProtected(r io.Reader, seed uint64, roots []uint64) (*Protected, error) {
	m, err := secmem.Load(r, seed, roots)
	if err != nil {
		return nil, err
	}
	return &Protected{mem: m, trk: tracker.New(tracker.DefaultConfig())}, nil
}
