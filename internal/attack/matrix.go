package attack

import (
	"fmt"
	"strings"

	"unimem/internal/core"
)

// Profile classifies a scheme's functional protection model — which
// off-chip state exists and which verification binds it. It is derived
// from the scheme's Spec (core.SchemeSpec), never from the scheme's name,
// so a new registry row lands in a profile automatically and the drift
// guard in matrix_test.go forces a human to confirm the derivation.
type Profile uint8

const (
	// ProfileUnsecure stores plaintext with no metadata (Spec.Protect off).
	ProfileUnsecure Profile = iota
	// ProfileMACOnly authenticates content and address with per-block MACs
	// but keeps no freshness state (Spec.Counters is CountersNone) —
	// SecDDR-style interface protection.
	ProfileMACOnly
	// ProfileFull verifies counters through the integrity tree and MACs at
	// one fixed granularity (Spec.Protect, no granularity table).
	ProfileFull
	// ProfileFullSwitching is ProfileFull plus a granularity table and
	// lazy multi-granular switching (Spec.UseTable).
	ProfileFullSwitching
)

// String returns the profile label.
func (p Profile) String() string {
	switch p {
	case ProfileUnsecure:
		return "unsecure"
	case ProfileMACOnly:
		return "mac-only"
	case ProfileFull:
		return "full"
	case ProfileFullSwitching:
		return "full+switching"
	}
	return "unknown"
}

// ProfileOf derives the protection profile of a registered scheme from its
// Spec traits.
func ProfileOf(s core.Scheme) Profile {
	spec := core.SchemeSpec(s)
	switch {
	case !spec.Protect:
		return ProfileUnsecure
	case spec.Counters == core.CountersNone:
		return ProfileMACOnly
	case spec.UseTable:
		return ProfileFullSwitching
	}
	return ProfileFull
}

// Expectation is the asserted outcome of one (scheme, attack class) cell.
type Expectation uint8

const (
	// Detected: the campaign must land the attack and observe a
	// verification error.
	Detected Expectation = iota
	// Undetectable: the campaign must land the attack, observe divergence
	// from the twin, and observe NO detection — the scheme provably cannot
	// catch this class, for the reason in Cell.Why.
	Undetectable
	// Impossible: the primitive must report not-landed — the target state
	// does not exist under this scheme.
	Impossible
)

// String returns the expectation label.
func (e Expectation) String() string {
	switch e {
	case Detected:
		return "detected"
	case Undetectable:
		return "undetectable"
	case Impossible:
		return "impossible"
	}
	return "unknown"
}

// mark is the one-character matrix-cell rendering.
func (e Expectation) mark() string {
	switch e {
	case Detected:
		return "D"
	case Undetectable:
		return "U"
	default:
		return "-"
	}
}

// Cell is one matrix entry: the expected outcome and, for gaps, the
// justification tied to the scheme's Spec. Every non-Detected cell
// carries a Why — the acceptance criterion of zero unexplained gaps.
type Cell struct {
	Expect Expectation
	Why    string
}

// MatrixFor returns the expected detection matrix row of one scheme,
// indexed by Class.
func MatrixFor(s core.Scheme) [NumClasses]Cell {
	var row [NumClasses]Cell
	switch ProfileOf(s) {
	case ProfileUnsecure:
		const why = "Spec.Protect=false: no MACs, counters or table exist; stored data is mutable at will"
		row[DataTamper] = Cell{Undetectable, why}
		row[Splice] = Cell{Undetectable, why}
		row[Replay] = Cell{Undetectable, why}
		row[MACTamper] = Cell{Impossible, "no MACs are stored"}
		row[CounterTamper] = Cell{Impossible, "no counters are stored"}
		row[Rollback] = Cell{Impossible, "no freshness state exists"}
		row[XGranSplice] = Cell{Impossible, "no granularity table, no switch window"}
		row[TableCorrupt] = Cell{Impossible, "no granularity table"}

	case ProfileMACOnly:
		row[DataTamper] = Cell{Expect: Detected}
		row[MACTamper] = Cell{Expect: Detected}
		row[Splice] = Cell{Expect: Detected}
		row[Replay] = Cell{Undetectable,
			"Spec.Counters=CountersNone: the MAC binds (address, ciphertext) " +
				"but no freshness state exists, so a stale (ciphertext, MAC) pair verifies — " +
				"the provable replay gap of SecDDR-style MAC-only protection"}
		row[CounterTamper] = Cell{Impossible, "no counters are stored"}
		row[Rollback] = Cell{Impossible, "no freshness state exists; content-level rollback is the replay row"}
		row[XGranSplice] = Cell{Impossible, "no granularity table, no switch window"}
		row[TableCorrupt] = Cell{Impossible, "no granularity table"}

	case ProfileFull:
		for c := range row {
			row[c] = Cell{Expect: Detected}
		}
		row[XGranSplice] = Cell{Impossible,
			"Spec.UseTable=false: one fixed granularity, no switch window to splice into"}
		row[TableCorrupt] = Cell{Impossible,
			"Spec.UseTable=false: the scheme never consults a granularity table"}

	default: // ProfileFullSwitching
		for c := range row {
			row[c] = Cell{Expect: Detected}
		}
	}
	if core.SchemeSpec(s).Counters == core.CountersCPUTree {
		row[Replay].Why = "detected for CPU traffic via the tree; accelerator traffic relies on " +
			"application-managed versions (CountersCPUTree), modelled here as equivalent freshness"
	}
	return row
}

// RenderMatrix renders the full scheme × class expectation matrix plus the
// justification legend — the golden's content and the mgsim -attack matrix
// output. D = detected, U = provably undetectable, - = impossible.
func RenderMatrix() string {
	var b strings.Builder
	name := func(s core.Scheme) string { return s.String() }
	width := 0
	for _, s := range core.Schemes {
		if n := len(name(s)); n > width {
			width = n
		}
	}
	fmt.Fprintf(&b, "%-*s  profile         ", width, "scheme")
	for _, c := range Classes {
		fmt.Fprintf(&b, " %s", shortClass(c))
	}
	b.WriteString("\n")
	for _, s := range core.Schemes {
		row := MatrixFor(s)
		fmt.Fprintf(&b, "%-*s  %-15s ", width, name(s), ProfileOf(s).String())
		for _, c := range Classes {
			fmt.Fprintf(&b, " %*s", len(shortClass(c)), row[c].Expect.mark())
		}
		b.WriteString("\n")
	}
	b.WriteString("\nGaps (every non-detected cell, with its justification):\n")
	for _, s := range core.Schemes {
		row := MatrixFor(s)
		for _, c := range Classes {
			if row[c].Expect == Detected {
				continue
			}
			fmt.Fprintf(&b, "  %s x %s: %s — %s\n", name(s), c, row[c].Expect, row[c].Why)
		}
	}
	return b.String()
}

// shortClass is the column header of a class.
func shortClass(c Class) string {
	switch c {
	case DataTamper:
		return "data"
	case MACTamper:
		return "mac"
	case CounterTamper:
		return "ctr"
	case Splice:
		return "splice"
	case XGranSplice:
		return "xgran"
	case Replay:
		return "replay"
	case Rollback:
		return "rollbk"
	case TableCorrupt:
		return "table"
	}
	return "?"
}
