package attack

import (
	"fmt"
	"maps"

	"unimem/internal/crypto"
	"unimem/internal/meta"
	"unimem/internal/probe"
	"unimem/internal/secmem"
)

// victim is one functional protection model under attack. A campaign runs
// two instances with identical seeds — the victim, which the attacker
// mutates, and a twin, which sees only the legitimate operations — and
// uses their state difference as the divergence oracle: deterministic
// crypto makes the clean states bit-exact.
//
// Attack primitives report whether the mutation landed; false means the
// target state does not exist under this model (no counters to tamper, no
// granularity table to corrupt), so the campaign can tell "impossible"
// from "undetected".
type victim interface {
	// Legitimate data path. Errors are integrity violations — detections.
	Write(addr uint64, data []byte) error
	Read(addr uint64) error
	Check(addr uint64) error
	// Switch applies a granularity-switch detection for the chunk. hook,
	// when non-nil, fires inside the lazy-switch window (models with one);
	// the returned bool reports whether it fired.
	Switch(chunk uint64, sp meta.StreamPart, hook func()) (bool, error)
	// CurrentSP returns the chunk's granularity encoding (0 without one).
	CurrentSP(chunk uint64) meta.StreamPart

	// Attack surface.
	TamperData(addr uint64) bool
	TamperMAC(addr uint64) bool
	TamperCounter(addr uint64) bool
	Splice(a, b uint64) bool
	TamperTable(chunk uint64, sp meta.StreamPart) bool
	Snapshot() any
	Replay(snap any) bool
	Rollback(snap any) bool

	// StateEqual compares complete off-chip state against a same-profile
	// instance.
	StateEqual(other victim) bool
}

// newVictim builds the functional model for a protection profile.
func newVictim(p Profile, regionBytes, seed uint64) victim {
	switch p {
	case ProfileUnsecure:
		return &unsecureVictim{data: map[uint64][meta.BlockSize]byte{}, region: regionBytes}
	case ProfileMACOnly:
		return newMACOnlyVictim(regionBytes, seed)
	default:
		return &fullVictim{mem: secmem.New(regionBytes, seed), switching: p == ProfileFullSwitching}
	}
}

// --- full protection (counters + tree + MACs): wraps internal/secmem -----

type fullVictim struct {
	mem *secmem.Memory
	// switching mirrors Spec.UseTable: schemes without a granularity table
	// run one fixed granularity, so switch windows and table corruption
	// do not exist for them even though the underlying functional image
	// carries a (permanently fine-grained) table.
	switching bool
}

func (v *fullVictim) Write(addr uint64, data []byte) error { return v.mem.Write(addr, data) }

func (v *fullVictim) Read(addr uint64) error {
	_, err := v.mem.Read(addr)
	return err
}

func (v *fullVictim) Check(addr uint64) error { return v.mem.Check(addr) }

func (v *fullVictim) Switch(chunk uint64, sp meta.StreamPart, hook func()) (bool, error) {
	if !v.switching {
		return false, nil
	}
	fired := false
	if hook != nil {
		v.mem.SetProbe(probe.Func(func(e probe.Event) {
			if e.Kind == probe.EvSwitchWindow && e.Addr == chunk*meta.ChunkSize {
				fired = true
				hook()
			}
		}))
		defer v.mem.SetProbe(nil)
	}
	return fired, v.mem.ApplyDetection(chunk, sp)
}

func (v *fullVictim) CurrentSP(chunk uint64) meta.StreamPart { return v.mem.Encoding(chunk) }

func (v *fullVictim) TamperData(addr uint64) bool    { return v.mem.TamperData(addr) }
func (v *fullVictim) TamperMAC(addr uint64) bool     { return v.mem.TamperMAC(addr) }
func (v *fullVictim) TamperCounter(addr uint64) bool { return v.mem.TamperCounter(addr) }
func (v *fullVictim) Splice(a, b uint64) bool        { return v.mem.SpliceData(a, b) }

func (v *fullVictim) TamperTable(chunk uint64, sp meta.StreamPart) bool {
	if !v.switching {
		return false
	}
	return v.mem.TamperTable(chunk, sp)
}

func (v *fullVictim) Snapshot() any { return v.mem.Snapshot() }

func (v *fullVictim) Replay(snap any) bool {
	s := snap.(*secmem.Snapshot)
	landed := !v.mem.Snapshot().Equal(s)
	v.mem.Replay(s)
	return landed
}

func (v *fullVictim) Rollback(snap any) bool {
	return v.mem.RollbackCounters(snap.(*secmem.Snapshot))
}

func (v *fullVictim) StateEqual(other victim) bool {
	return v.mem.Snapshot().Equal(other.(*fullVictim).mem.Snapshot())
}

// --- MAC-only (SecDDR-style): MACs bind address and content, nothing
// binds freshness — an executable demonstration that replay passes
// verification under this design. ------------------------------------

type macOnlyVictim struct {
	eng    *crypto.Engine
	region uint64
	data   map[uint64][meta.BlockSize]byte
	macs   map[uint64]crypto.MAC
}

// macOnlySnapshot is the full off-chip state of the MAC-only model.
type macOnlySnapshot struct {
	data map[uint64][meta.BlockSize]byte
	macs map[uint64]crypto.MAC
}

func newMACOnlyVictim(regionBytes, seed uint64) *macOnlyVictim {
	return &macOnlyVictim{
		eng:    crypto.NewEngine(seed),
		region: regionBytes,
		data:   map[uint64][meta.BlockSize]byte{},
		macs:   map[uint64]crypto.MAC{},
	}
}

// macCtr is the constant counter of the MAC-only design: with no version
// state, every (address, ciphertext, MAC) triple from any point in time
// verifies — the provable replay gap.
const macCtr = 0

func (v *macOnlyVictim) Write(addr uint64, data []byte) error {
	var ct [meta.BlockSize]byte
	v.eng.Seal(ct[:], addr, macCtr, data)
	v.data[addr] = ct
	v.macs[addr] = v.eng.BlockMAC(addr, macCtr, ct[:])
	return nil
}

func (v *macOnlyVictim) Read(addr uint64) error { return v.Check(addr) }

func (v *macOnlyVictim) Check(addr uint64) error {
	ct, okData := v.data[addr]
	mac, okMAC := v.macs[addr]
	if !okData && !okMAC {
		return nil // pristine block reads zero
	}
	if !okMAC {
		return fmt.Errorf("%w: missing MAC for block %#x", secmem.ErrMAC, addr)
	}
	if !crypto.Equal(mac, v.eng.BlockMAC(addr, macCtr, ct[:])) {
		return fmt.Errorf("%w: block %#x", secmem.ErrMAC, addr)
	}
	return nil
}

func (v *macOnlyVictim) Switch(uint64, meta.StreamPart, func()) (bool, error) { return false, nil }
func (v *macOnlyVictim) CurrentSP(uint64) meta.StreamPart                     { return 0 }

func (v *macOnlyVictim) TamperData(addr uint64) bool {
	blk := addr &^ (meta.BlockSize - 1)
	ct := v.data[blk]
	ct[addr%meta.BlockSize] ^= 1
	v.data[blk] = ct
	return true
}

func (v *macOnlyVictim) TamperMAC(addr uint64) bool {
	blk := addr &^ (meta.BlockSize - 1)
	mac := v.macs[blk]
	mac[0] ^= 1
	v.macs[blk] = mac
	return true
}

// TamperCounter is impossible: the design stores no counters.
func (v *macOnlyVictim) TamperCounter(uint64) bool { return false }

func (v *macOnlyVictim) Splice(a, b uint64) bool {
	if a == b {
		return false
	}
	cta, oka := v.data[a]
	ctb, okb := v.data[b]
	if !oka && !okb {
		return false
	}
	v.data[a], v.data[b] = ctb, cta
	return true
}

// TamperTable is impossible: the design has no granularity table.
func (v *macOnlyVictim) TamperTable(uint64, meta.StreamPart) bool { return false }

func (v *macOnlyVictim) Snapshot() any {
	return &macOnlySnapshot{data: maps.Clone(v.data), macs: maps.Clone(v.macs)}
}

func (v *macOnlyVictim) Replay(snap any) bool {
	s := snap.(*macOnlySnapshot)
	if maps.Equal(v.data, s.data) && maps.Equal(v.macs, s.macs) {
		return false
	}
	v.data = maps.Clone(s.data)
	v.macs = maps.Clone(s.macs)
	return true
}

// Rollback is impossible: there is no freshness state to roll back.
func (v *macOnlyVictim) Rollback(any) bool { return false }

func (v *macOnlyVictim) StateEqual(other victim) bool {
	o := other.(*macOnlyVictim)
	return maps.Equal(v.data, o.data) && maps.Equal(v.macs, o.macs)
}

// --- unsecure (plaintext, no metadata): nothing lands but data moves ----

type unsecureVictim struct {
	region uint64
	data   map[uint64][meta.BlockSize]byte
}

func (v *unsecureVictim) Write(addr uint64, data []byte) error {
	var b [meta.BlockSize]byte
	copy(b[:], data)
	v.data[addr] = b
	return nil
}

func (v *unsecureVictim) Read(uint64) error  { return nil }
func (v *unsecureVictim) Check(uint64) error { return nil }

func (v *unsecureVictim) Switch(uint64, meta.StreamPart, func()) (bool, error) { return false, nil }
func (v *unsecureVictim) CurrentSP(uint64) meta.StreamPart                     { return 0 }

func (v *unsecureVictim) TamperData(addr uint64) bool {
	blk := addr &^ (meta.BlockSize - 1)
	b := v.data[blk]
	b[addr%meta.BlockSize] ^= 1
	v.data[blk] = b
	return true
}

// No MACs, counters or table exist to tamper with.
func (v *unsecureVictim) TamperMAC(uint64) bool                    { return false }
func (v *unsecureVictim) TamperCounter(uint64) bool                { return false }
func (v *unsecureVictim) TamperTable(uint64, meta.StreamPart) bool { return false }

func (v *unsecureVictim) Splice(a, b uint64) bool {
	if a == b {
		return false
	}
	da, oka := v.data[a]
	db, okb := v.data[b]
	if !oka && !okb {
		return false
	}
	v.data[a], v.data[b] = db, da
	return true
}

func (v *unsecureVictim) Snapshot() any { return maps.Clone(v.data) }

func (v *unsecureVictim) Replay(snap any) bool {
	s := snap.(map[uint64][meta.BlockSize]byte)
	if maps.Equal(v.data, s) {
		return false
	}
	v.data = maps.Clone(s)
	return true
}

func (v *unsecureVictim) Rollback(any) bool { return false }

func (v *unsecureVictim) StateEqual(other victim) bool {
	return maps.Equal(v.data, other.(*unsecureVictim).data)
}
