package secmem

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"unimem/internal/crypto"
	"unimem/internal/meta"
)

// Image persistence: a protected memory image can be written out and
// reloaded later. The OFF-CHIP state (ciphertext, MACs, tree nodes,
// counters, granularity table) needs no secrecy — it is exactly what an
// attacker already sees — but the ON-CHIP state (root counters) must come
// from trusted storage: Save emits the roots separately so a deployment
// can put them in sealed storage, and Load refuses an image whose roots
// do not authenticate the tree (an offline replay attempt). The region
// size is the engine's configuration and comes from the caller as well,
// so an image cannot make Load allocate more than the caller expects.

const (
	imageMagic   = 0x756d656d31 // "umem1"
	imageVersion = 1
)

// ErrImageFormat reports a malformed or incompatible image.
var ErrImageFormat = errors.New("secmem: bad image format")

// Save writes the off-chip image to w and returns the on-chip root
// counters the caller must persist in trusted storage.
func (m *Memory) Save(w io.Writer) (roots []uint64, err error) {
	iw := &imageWriter{bw: bufio.NewWriter(w), buf: make([]byte, 0, 8+meta.BlockSize)}
	// Format v1 holds a counter-width word here and a major-epoch section
	// last. Counters are unbounded, so both are written empty and Load
	// rejects any other value.
	iw.put(nil, imageMagic, imageVersion, m.geom.RegionBytes, 0)

	// Every section is emitted in ascending key order, which is slot
	// order: the image bytes must be a pure function of the protected
	// state, so two Saves of the same memory are byte-identical
	// (attestation and artifact diffing depend on it).
	iw.put(nil, uint64(m.data.count()))
	m.data.each(func(i uint64, ct [meta.BlockSize]byte) { iw.put(ct[:], i*meta.BlockSize) })
	iw.put(nil, uint64(m.counters.count()))
	m.eachCounter(func(level int, entry, val uint64) { iw.put(nil, uint64(level), entry, val) })
	iw.macs(&m.macs, m.geom.MACBase, meta.MACSize)
	iw.macs(&m.nodeMACs, m.geom.CounterBase, meta.BlockSize)
	// Granularity table: per non-default chunk, its encoding.
	coarse := 0
	for _, sp := range m.table {
		if sp != 0 {
			coarse++
		}
	}
	iw.put(nil, uint64(coarse))
	for c, sp := range m.table {
		if sp != 0 {
			iw.put(nil, uint64(c), uint64(sp))
		}
	}
	iw.put(nil, 0) // major-epoch section count
	if err := iw.bw.Flush(); err != nil {
		return nil, err
	}
	return append([]uint64(nil), m.roots...), nil
}

// imageWriter encodes every entry Save writes into one scratch buffer, so a
// Save allocates the same few objects whatever the image holds.
type imageWriter struct {
	bw  *bufio.Writer
	buf []byte // scratch, as long as the longest entry: an address and a block
}

// put writes the words, then tail, as one entry. A bufio.Writer keeps its
// first error and returns it from every later call, Flush included, which
// Save checks, so put discards it.
func (w *imageWriter) put(tail []byte, words ...uint64) {
	b := w.buf[:0]
	for _, v := range words {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	_, _ = w.bw.Write(append(b, tail...))
}

// macs writes one MAC section, keyed by address: slot i of macs lives at
// base + i*size.
func (w *imageWriter) macs(macs *slots[crypto.MAC], base, size uint64) {
	w.put(nil, uint64(macs.count()))
	macs.each(func(i uint64, mac crypto.MAC) { w.put(mac[:], base+i*size) })
}

// Load reconstructs a protected memory of regionBytes from an image and
// the trusted root counters, using the engine key derived from seed (which
// must match the key the image was written under, or every read will fail
// verification). Load verifies the top tree level against the supplied
// roots and rejects images that do not authenticate.
//
// The region, like the roots, comes from trusted storage, not from the
// image: the image only repeats it, and an image that declares another
// region is rejected with ErrImageFormat before anything is allocated.
// Like New, Load then allocates the whole image of regionBytes up front.
func Load(r io.Reader, regionBytes, seed uint64, roots []uint64) (*Memory, error) {
	br := bufio.NewReader(r)
	buf := make([]byte, meta.BlockSize) // scratch every field is read into
	read := func() (uint64, error) {
		if _, err := io.ReadFull(br, buf[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf), nil
	}
	magic, err := read()
	if err != nil || magic != imageMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrImageFormat)
	}
	version, err := read()
	if err != nil || version != imageVersion {
		return nil, fmt.Errorf("%w: unsupported version", ErrImageFormat)
	}
	region, err := read()
	if err != nil || region != regionBytes {
		return nil, fmt.Errorf("%w: region %d, want %d", ErrImageFormat, region, regionBytes)
	}
	if regionBytes == 0 || regionBytes%meta.ChunkSize != 0 {
		return nil, fmt.Errorf("%w: bad region size", ErrImageFormat)
	}
	// A counter width (or, below, a major epoch) marks an image written
	// with bounded counters, which this engine cannot read.
	if width, err := read(); err != nil || width != 0 {
		return nil, fmt.Errorf("%w: bounded counters unsupported", ErrImageFormat)
	}
	g := meta.NewGeometry(regionBytes)
	if want := g.RootEntries(); len(roots) != want {
		return nil, fmt.Errorf("%w: root count %d, want %d", ErrImageFormat, len(roots), want)
	}
	m := newMemory(g, seed)
	copy(m.roots, roots)

	n, err := read()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		addr, err := read()
		if err != nil {
			return nil, err
		}
		if addr >= m.geom.RegionBytes || addr%meta.BlockSize != 0 {
			return nil, fmt.Errorf("%w: data block %#x outside the region or not 64B aligned", ErrImageFormat, addr)
		}
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		m.data.set(meta.BlockIndex(addr), [meta.BlockSize]byte(buf))
	}
	if n, err = read(); err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		level, err1 := read()
		entry, err2 := read()
		val, err3 := read()
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%w: truncated counters", ErrImageFormat)
		}
		if level >= uint64(m.geom.Levels()) || entry >= m.geom.CounterEntries(int(level)) {
			return nil, fmt.Errorf("%w: counter entry %d outside tree level %d", ErrImageFormat, entry, level)
		}
		m.counters.set(m.counterSlot(int(level), entry), val)
	}
	// readMACs reads one MAC section, whose keys must be addresses in
	// [lo, hi) aligned to align: data MACs live at MAC slots, node MACs at
	// counter lines. Slot i of dst lives at lo + i*align.
	readMACs := func(dst *slots[crypto.MAC], what string, lo, hi, align uint64) error {
		n, err := read()
		if err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			addr, err := read()
			if err != nil {
				return err
			}
			if addr < lo || addr >= hi || addr%align != 0 {
				return fmt.Errorf("%w: %s MAC at %#x outside [%#x,%#x) or not %dB aligned", ErrImageFormat, what, addr, lo, hi, align)
			}
			if _, err := io.ReadFull(br, buf[:crypto.MACSize]); err != nil {
				return err
			}
			dst.set((addr-lo)/align, crypto.MAC(buf[:crypto.MACSize]))
		}
		return nil
	}
	if err := readMACs(&m.macs, "data", m.geom.MACBase, m.geom.CounterBase, meta.MACSize); err != nil {
		return nil, err
	}
	if err := readMACs(&m.nodeMACs, "node", m.geom.CounterBase, m.geom.GTBase, meta.BlockSize); err != nil {
		return nil, err
	}
	if n, err = read(); err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		chunk, err1 := read()
		sp, err2 := read()
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%w: truncated granularity table", ErrImageFormat)
		}
		if chunk >= uint64(len(m.table)) {
			return nil, fmt.Errorf("%w: granularity entry for chunk %d outside the %d-chunk region", ErrImageFormat, chunk, len(m.table))
		}
		m.table[chunk] = meta.StreamPart(sp)
	}
	if n, err = read(); err != nil {
		return nil, err
	}
	if n != 0 {
		return nil, fmt.Errorf("%w: bounded counters unsupported", ErrImageFormat)
	}

	// Authenticate: every tree line a read can verify from must verify
	// against the trusted roots before the image is trusted at all.
	if err := m.verifyImage(); err != nil {
		return nil, err
	}
	return m, nil
}

// eachCounter calls f on every stored counter in slot order, which is
// ascending (level, entry) order.
func (m *Memory) eachCounter(f func(level int, entry, val uint64)) {
	level := 0
	m.counters.each(func(i, val uint64) {
		for i >= m.counterSlot(level+1, 0) {
			level++
		}
		f(level, i-m.counterSlot(level, 0), val)
	})
}

// verifyImage checks, once each and in ascending (level, line) order, the
// tree lines above every stored counter that a unit of the current
// encoding owns: exactly the chains Read verifies from. Counters left
// below a promoted unit are skipped: no read verifies them, and their
// lines still carry node MACs sealed under the pre-promotion parent value.
func (m *Memory) verifyImage() error {
	live := make([]bool, m.lineBase[m.geom.Levels()]) // by line slot
	m.eachCounter(func(level int, entry, _ uint64) {
		blockIdx := entry << (3 * uint(level))
		sp := m.table[blockIdx/meta.BlocksPerChunk]
		if sp.GranOfBlock(int(blockIdx%meta.BlocksPerChunk)).Level() != level {
			return
		}
		for l, line := level, entry/meta.Arity; l < m.geom.Levels(); l, line = l+1, line/meta.Arity {
			live[m.lineSlot(l, line)] = true
		}
	})
	for level := 0; level < m.geom.Levels(); level++ {
		for line := uint64(0); m.lineSlot(level, line) < m.lineBase[level+1]; line++ {
			if !live[m.lineSlot(level, line)] {
				continue
			}
			if err := m.verifyLine(level, line); err != nil {
				return fmt.Errorf("image rejected: %w", err)
			}
		}
	}
	return nil
}
