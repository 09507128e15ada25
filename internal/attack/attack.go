// Package attack is the adversarial campaign harness of the paper's threat
// model (section 2.5): an attacker with full control of off-chip memory —
// ciphertext, MACs, counter-tree nodes, granularity table — mutates a
// protected image mid-run while a twin image sees only the legitimate
// operations. Per scheme in the core registry, a campaign asserts that the
// mutation is detected (a verification error fires), or that the scheme's
// Spec documents why the attack class is provably undetectable (a MAC-only
// design cannot catch replay) or impossible (the target state does not
// exist under that scheme).
//
// Campaigns are deterministic given their seed: the same Config replays
// the same operation schedule, attack target and result, so a soak failure
// reduces to one JSON artifact (see artifact.go).
package attack

import (
	"fmt"
	"strings"
)

// Class is one attack class of the threat model.
type Class uint8

// The attack classes, covering every off-chip mutation primitive of
// internal/secmem. XGranSplice is the hard case related work motivates
// (Morphable-Counters-style encoding transitions): a splice timed via the
// probe seam to land inside a lazy granularity-switch window.
const (
	// DataTamper flips one stored ciphertext bit.
	DataTamper Class = iota
	// MACTamper flips one stored MAC bit.
	MACTamper
	// CounterTamper bumps a stored counter without resealing the tree.
	CounterTamper
	// Splice swaps the stored ciphertext of two blocks (relocation).
	Splice
	// XGranSplice swaps blocks across chunks of different granularity,
	// timed to land inside a lazy granularity-switch window.
	XGranSplice
	// Replay restores a full stale off-chip snapshot.
	Replay
	// Rollback restores only the freshness state (counters and tree
	// nodes), leaving data and MACs current.
	Rollback
	// TableCorrupt rewrites a chunk's granularity-table entry, so metadata
	// laid out under one encoding is reinterpreted under another.
	TableCorrupt
	numClasses
)

// NumClasses is the number of attack classes.
const NumClasses = int(numClasses)

// Classes lists every attack class in declaration order.
var Classes = func() []Class {
	out := make([]Class, NumClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}()

// String returns the stable label of the class (used in goldens, artifacts
// and the mgsim -attack flag).
func (c Class) String() string {
	switch c {
	case DataTamper:
		return "data-tamper"
	case MACTamper:
		return "mac-tamper"
	case CounterTamper:
		return "counter-tamper"
	case Splice:
		return "splice"
	case XGranSplice:
		return "xgran-splice"
	case Replay:
		return "replay"
	case Rollback:
		return "rollback"
	case TableCorrupt:
		return "table-corrupt"
	}
	return "unknown"
}

// ParseClass resolves a class label (as produced by String).
func ParseClass(s string) (Class, error) {
	for _, c := range Classes {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("attack: unknown class %q (want one of %s)", s, strings.Join(ClassNames(), ", "))
}

// ClassNames returns every class label in declaration order.
func ClassNames() []string {
	out := make([]string, NumClasses)
	for i, c := range Classes {
		out[i] = c.String()
	}
	return out
}

// rng is a xorshift64* generator, the package's own deterministic PRNG:
// identical seeds replay identical campaigns, which the soak's failure
// artifacts depend on (see the soak test).
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// rangeN returns a value in [0, n).
func (r *rng) rangeN(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}
