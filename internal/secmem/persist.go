package secmem

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"unimem/internal/crypto"
	"unimem/internal/meta"
)

// Image persistence: a protected memory image can be written out and
// reloaded later. The OFF-CHIP state (ciphertext, MACs, tree nodes,
// counters, granularity table) needs no secrecy — it is exactly what an
// attacker already sees — but the ON-CHIP state (root counters) must come
// from trusted storage: Save emits the roots separately so a deployment
// can put them in sealed storage, and Load refuses an image whose roots
// do not authenticate the tree (an offline replay attempt).

const (
	imageMagic   = 0x756d656d31 // "umem1"
	imageVersion = 1
)

// ErrImageFormat reports a malformed or incompatible image.
var ErrImageFormat = errors.New("secmem: bad image format")

// Save writes the off-chip image to w and returns the on-chip root
// counters the caller must persist in trusted storage.
func (m *Memory) Save(w io.Writer) (roots []uint64, err error) {
	bw := bufio.NewWriter(w)
	put := func(vals ...uint64) {
		if err != nil {
			return
		}
		for _, v := range vals {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			_, err = bw.Write(b[:])
			if err != nil {
				return
			}
		}
	}
	// Format v1 holds a counter-width word here and a major-epoch section
	// last. Counters are unbounded, so both are written empty and Load
	// rejects any other value.
	put(imageMagic, imageVersion, m.geom.RegionBytes, 0)

	// Every map section is emitted in sorted key order: the image bytes
	// must be a pure function of the protected state, so two Saves of the
	// same memory are byte-identical (attestation and artifact diffing
	// depend on it; Go map iteration order would break it).
	putMACs := func(macs map[uint64]crypto.MAC) {
		put(uint64(len(macs)))
		for _, addr := range sortedKeys(macs) {
			mac := macs[addr]
			put(addr)
			if err == nil {
				_, err = bw.Write(mac[:])
			}
		}
	}

	put(uint64(len(m.data)))
	for _, addr := range sortedKeys(m.data) {
		ct := m.data[addr]
		put(addr)
		if err == nil {
			_, err = bw.Write(ct[:])
		}
	}
	put(uint64(len(m.counters)))
	for _, k := range sortedCounterKeys(m.counters) {
		put(uint64(k.level), k.entry, m.counters[k])
	}
	putMACs(m.macs)
	putMACs(m.nodeMACs)
	// Granularity table: per non-default chunk, its encoding.
	put(uint64(len(m.table)))
	for _, c := range sortedKeys(m.table) {
		put(c, uint64(m.table[c]))
	}
	put(0) // major-epoch section count
	if err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return append([]uint64(nil), m.roots...), nil
}

// sortedKeys returns the keys of a uint64-keyed map in ascending order —
// the deterministic iteration order Save emits every section in.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// sortedCounterKeys returns the keys of a counterKey-keyed map in ascending
// (level, entry) order.
func sortedCounterKeys[V any](m map[counterKey]V) []counterKey {
	keys := make([]counterKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b counterKey) int {
		return cmp.Or(cmp.Compare(a.level, b.level), cmp.Compare(a.entry, b.entry))
	})
	return keys
}

// Load reconstructs a protected memory from an image and the trusted root
// counters, using the engine key derived from seed (which must match the
// key the image was written under, or every read will fail verification).
// Load verifies the top tree level against the supplied roots and rejects
// images that do not authenticate.
func Load(r io.Reader, seed uint64, roots []uint64) (*Memory, error) {
	br := bufio.NewReader(r)
	read := func() (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
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
	if err != nil || region == 0 || region%meta.ChunkSize != 0 {
		return nil, fmt.Errorf("%w: bad region size", ErrImageFormat)
	}
	// A counter width (or, below, a major epoch) marks an image written
	// with bounded counters, which this engine cannot read.
	if width, err := read(); err != nil || width != 0 {
		return nil, fmt.Errorf("%w: bounded counters unsupported", ErrImageFormat)
	}
	m := New(region, seed)
	if len(roots) != len(m.roots) {
		return nil, fmt.Errorf("%w: root count %d, want %d", ErrImageFormat, len(roots), len(m.roots))
	}
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
		var ct [meta.BlockSize]byte
		if _, err := io.ReadFull(br, ct[:]); err != nil {
			return nil, err
		}
		m.data[addr] = ct
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
		m.counters[counterKey{int(level), entry}] = val
	}
	// readMACs reads one MAC section, whose keys must be addresses in
	// [lo, hi) aligned to align: data MACs live at MAC slots, node MACs at
	// counter lines.
	readMACs := func(dst map[uint64]crypto.MAC, what string, lo, hi, align uint64) error {
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
			var mac crypto.MAC
			if _, err := io.ReadFull(br, mac[:]); err != nil {
				return err
			}
			dst[addr] = mac
		}
		return nil
	}
	if err := readMACs(m.macs, "data", m.geom.MACBase, m.geom.CounterBase, meta.MACSize); err != nil {
		return nil, err
	}
	if err := readMACs(m.nodeMACs, "node", m.geom.CounterBase, m.geom.GTBase, meta.BlockSize); err != nil {
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
		if chunk >= m.geom.Chunks() {
			return nil, fmt.Errorf("%w: granularity entry for chunk %d outside the %d-chunk region", ErrImageFormat, chunk, m.geom.Chunks())
		}
		m.setEncoding(chunk, meta.StreamPart(sp))
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

// verifyImage checks, once each and in ascending (level, line) order, the
// tree lines above every stored counter that a unit of the current
// encoding owns: exactly the chains Read verifies from. Counters left
// below a promoted unit are skipped: no read verifies them, and their
// lines still carry node MACs sealed under the pre-promotion parent value.
func (m *Memory) verifyImage() error {
	lines := map[counterKey]bool{} // entry holds the line index
	for k := range m.counters {
		blockIdx := k.entry << (3 * uint(k.level))
		sp := m.table[blockIdx/meta.BlocksPerChunk]
		if sp.GranOfBlock(int(blockIdx%meta.BlocksPerChunk)).Level() != k.level {
			continue
		}
		for level, line := k.level, k.entry/meta.Arity; level < m.geom.Levels(); level, line = level+1, line/meta.Arity {
			lines[counterKey{level, line}] = true
		}
	}
	for _, l := range sortedCounterKeys(lines) {
		if err := m.verifyLine(l.level, l.entry); err != nil {
			return fmt.Errorf("image rejected: %w", err)
		}
	}
	return nil
}
