package meta

import "testing"

// pending reports whether partition p of the chunk has an unapplied switch
// the way the engine reads the table: the partition's unit granularity
// differs between the current and the next encoding.
func pending(tb *Table, chunk uint64, p int) bool {
	return tb.Current(chunk).GranOf(p) != tb.Next(chunk).GranOf(p)
}

func TestTableDefaultsFine(t *testing.T) {
	tb := NewTable()
	if tb.Current(5) != 0 || tb.Next(5) != 0 {
		t.Fatal("untouched chunk not fine-grained")
	}
	if pending(tb, 5, 0) {
		t.Fatal("untouched chunk pending")
	}
}

func TestSetNextThenLazyCommit(t *testing.T) {
	tb := NewTable()
	tb.SetNext(7, StreamPart(0b11)) // partitions 0,1 become 512B
	if tb.Current(7) != 0 {
		t.Fatal("SetNext applied eagerly")
	}
	if !pending(tb, 7, 0) || !pending(tb, 7, 1) {
		t.Fatal("switch not pending on affected partitions")
	}
	if pending(tb, 7, 2) {
		t.Fatal("switch pending on unaffected partition")
	}
	from, to := tb.CommitUnit(7, 0)
	if from != Gran64 || to != Gran512 {
		t.Fatalf("commit = %v->%v, want 64B->512B", from, to)
	}
	if tb.Current(7) != StreamPart(0b01) {
		t.Fatalf("current = %#x, want 0b01 (only unit 0 committed)", uint64(tb.Current(7)))
	}
	tb.CommitUnit(7, 8)
	if tb.Current(7) != StreamPart(0b11) {
		t.Fatal("second unit not committed")
	}
	if len(tb.next) != 0 {
		t.Fatal("fully committed chunk still pending")
	}
}

func TestCommitUnitNoPending(t *testing.T) {
	tb := NewTable()
	from, to := tb.CommitUnit(3, 0)
	if from != Gran64 || to != Gran64 {
		t.Fatal("no-op commit changed granularity")
	}
}

func TestDemotionCommitSpansCoarseUnit(t *testing.T) {
	tb := NewTable()
	// Chunk starts as one 4KB unit over group 0.
	tb.SetNext(1, StreamPart(0xff))
	tb.CommitUnit(1, 0)
	if tb.Current(1) != StreamPart(0xff) {
		t.Fatal("promotion to 4KB failed")
	}
	// Detection now says group 0 is fine-grained.
	tb.SetNext(1, 0)
	// A touch of block 9 (partition 1) must demote the whole 4KB unit.
	from, to := tb.CommitUnit(1, 9)
	if from != Gran4K || to != Gran64 {
		t.Fatalf("commit = %v->%v, want 4KB->64B", from, to)
	}
	if tb.Current(1) != 0 {
		t.Fatalf("current = %#x, want 0 after demotion", uint64(tb.Current(1)))
	}
}

func TestSetNextEqualCurrentClearsPending(t *testing.T) {
	tb := NewTable()
	tb.SetNext(2, StreamPart(0b1))
	tb.SetNext(2, 0) // detection reverts before any access
	if len(tb.next) != 0 {
		t.Fatal("pending not cleared when next == current")
	}
}

func TestCommitAll(t *testing.T) {
	tb := NewTable()
	tb.SetNext(4, AllStream)
	tb.CommitAll(4)
	if tb.Current(4) != AllStream || len(tb.next) != 0 {
		t.Fatal("CommitAll broken")
	}
}

func TestPartialPromotion32K(t *testing.T) {
	tb := NewTable()
	tb.SetNext(9, AllStream)
	// Committing any block of the 32KB next-unit applies the whole chunk.
	from, to := tb.CommitUnit(9, 300)
	if from != Gran64 || to != Gran32K {
		t.Fatalf("commit = %v->%v, want 64B->32KB", from, to)
	}
	if tb.Current(9) != AllStream {
		t.Fatal("32KB promotion did not cover chunk")
	}
}

// Property: repeatedly committing units for random blocks converges the
// current encoding to the pending one, regardless of order. Every single
// commit lands its partition at the returned target granularity and leaves
// nothing pending there, and a pending partition always commits a genuine
// switch (from != to), which the engine's switch charging relies on.
func TestCommitConvergesProperty(t *testing.T) {
	for seed := uint64(1); seed < 40; seed++ {
		tb := NewTable()
		cur := StreamPart(seed * 0x9e3779b97f4a7c15)
		next := StreamPart(seed * 0xbf58476d1ce4e5b9)
		tb.SetNext(3, cur)
		tb.CommitAll(3)
		tb.SetNext(3, next)
		// Touch every partition once (any order would do; use a stride
		// that permutes 0..63).
		for i := 0; i < PartsPerChunk; i++ {
			p := (i*37 + int(seed)) % PartsPerChunk
			b := p * BlocksPerPartition
			was := pending(tb, 3, p)
			from, to := tb.CommitUnit(3, b)
			if was && from == to {
				t.Fatalf("seed %d part %d: pending commit returned no switch (%v)", seed, p, from)
			}
			if g := tb.Current(3).GranOf(p); g != to {
				t.Fatalf("seed %d part %d: committed to %v, want %v", seed, p, g, to)
			}
			if pending(tb, 3, p) {
				t.Fatalf("seed %d part %d: still pending after its commit", seed, p)
			}
		}
		if tb.Current(3) != next {
			t.Fatalf("seed %d: current %#x, want %#x", seed, uint64(tb.Current(3)), uint64(next))
		}
		if len(tb.next) != 0 {
			t.Fatalf("seed %d: still pending after full commit", seed)
		}
	}
}

// A partial commit must never complete a coarser pattern the next encoding
// did not ask for. The encoding defines an 0xff group as one 4KB unit and
// AllStream as one 32KB unit, so completing either bit by bit would
// silently reinterpret metadata laid out under the old encoding. Such
// commits widen to take the whole group (or chunk) from next instead.
func TestCommitDoesNotAccidentallyCoarsen(t *testing.T) {
	cases := []struct {
		name      string
		cur, next StreamPart
		p         int
		from, to  Gran
	}{
		// Partitions 24..30 stream; promoting 31 alone would set group 3
		// to 0xff.
		{"group", StreamPart(0x7f) << 24, StreamPart(0x80) << 24, 31, Gran64, Gran512},
		// Completing the last group of an otherwise fully streaming chunk
		// would form AllStream; the group widening alone prevents it.
		{"chunk via last group", AllStream &^ (StreamPart(0x80) << 56), StreamPart(0x80) << 56, 63, Gran64, Gran512},
		// Partition 0 joins next's 4KB group 0, which would complete
		// AllStream; next's group 0 is itself 0xff, so only the chunk
		// widening keeps the commit off 32KB.
		{"chunk via 4KB unit", AllStream &^ 1, AllStream &^ (StreamPart(0xff) << 56), 0, Gran64, Gran4K},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tb := NewTable()
			tb.SetNext(3, c.cur)
			tb.CommitAll(3)
			tb.SetNext(3, c.next)
			from, to := tb.CommitUnit(3, c.p*BlocksPerPartition)
			if from != c.from || to != c.to {
				t.Fatalf("commit = %v->%v, want %v->%v", from, to, c.from, c.to)
			}
			if g := tb.Current(3).GranOf(c.p); g != c.to {
				t.Fatalf("partition %d at %v after commit, want %v (current %#x)", c.p, g, c.to, uint64(tb.Current(3)))
			}
		})
	}
}
