package meta

// Table is the granularity table of paper section 4.4: per 32KB chunk it
// stores the current granularity encoding and, to support lazy granularity
// switching, the next (detected but not yet applied) encoding. The table
// lives in a protected memory region; the timing layer charges its accesses
// through a dedicated cache, while this structure holds the logical
// contents.
//
// The table is sparse: chunks never touched stay fine-grained (zero
// bitmap), matching the hardware default.
type Table struct {
	cur  map[uint64]StreamPart
	next map[uint64]StreamPart
}

// NewTable returns an empty table (all chunks fine-grained).
func NewTable() *Table {
	return &Table{cur: map[uint64]StreamPart{}, next: map[uint64]StreamPart{}}
}

// Current returns the applied encoding for a chunk.
func (t *Table) Current(chunk uint64) StreamPart { return t.cur[chunk] }

// Next returns the detected-but-unapplied encoding for a chunk. For chunks
// with no pending detection it equals Current.
func (t *Table) Next(chunk uint64) StreamPart {
	if sp, ok := t.next[chunk]; ok {
		return sp
	}
	return t.cur[chunk]
}

// SetNext records a freshly detected encoding for the chunk (the output of
// the granularity-detection algorithm). The switch is applied lazily,
// unit by unit, as accesses arrive.
func (t *Table) SetNext(chunk uint64, sp StreamPart) {
	if t.cur[chunk] == sp {
		delete(t.next, chunk)
		return
	}
	t.next[chunk] = sp
}

// CommitUnit applies the pending switch for the unit (under the *next*
// encoding) that covers block b, updating only that unit's partitions in
// the current encoding. It returns the old and new unit granularities.
// Committing a unit with no pending change is a no-op.
func (t *Table) CommitUnit(chunk uint64, b int) (from, to Gran) {
	cur := t.Current(chunk)
	next := t.Next(chunk)
	p := b / BlocksPerPartition
	from, to = cur.GranOf(p), next.GranOf(p)
	if cur == next {
		return from, to
	}
	// The unit under the coarser of the two encodings defines the span to
	// re-encode, so a 4KB->512B demotion rewrites all 8 partitions.
	span := max(from, to)
	parts := span.Blocks() / BlocksPerPartition
	if parts == 0 {
		parts = 1
	}
	first := p &^ (parts - 1)
	mask := maskRange(first, parts)
	merged := cur&^mask | next&mask
	// An incremental commit must not coarsen its neighbours by accident:
	// the encoding cannot distinguish eight individually promoted 512B
	// partitions from one 4KB unit (an 0xff group), nor 64 of them from a
	// 32KB chunk, so completing such a pattern bit by bit would silently
	// reinterpret metadata that was laid out under the old encoding. When a
	// commit would complete the coarser pattern without the next encoding
	// actually asking for it, widen the commit to take the whole enclosing
	// group (or chunk) from next — which by construction does not form the
	// pattern. The widened partitions just see their own pending switches
	// applied early.
	if merged == AllStream && next != AllStream {
		merged = next
	} else if g := p / 8; merged.groupBits(g) == 0xff && next.groupBits(g) != 0xff && next != AllStream {
		gm := maskRange(g*8, 8)
		merged = merged&^gm | next&gm
	}
	t.cur[chunk] = merged
	if merged == next {
		delete(t.next, chunk)
	}
	return from, to
}

// CommitAll force-applies the pending encoding for a chunk (used by tests
// and by the non-lazy ablation scheme).
func (t *Table) CommitAll(chunk uint64) {
	if sp, ok := t.next[chunk]; ok {
		t.cur[chunk] = sp
		delete(t.next, chunk)
	}
}

// Chunks returns the number of chunks with a non-default current encoding.
func (t *Table) Chunks() int { return len(t.cur) }

// CloneCommitted returns a copy of the table with every pending detection
// applied — the per-partition-best oracle input derived from a profiling
// run.
func (t *Table) CloneCommitted() *Table {
	out := NewTable()
	for c, sp := range t.cur {
		out.cur[c] = sp
	}
	for c, sp := range t.next {
		out.cur[c] = sp
	}
	return out
}
