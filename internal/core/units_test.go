package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"unimem/internal/meta"
)

// unitSpan is one protection unit, as the engine listed them one per unit
// before it carried runs.
type unitSpan struct {
	base uint64
	gran meta.Gran
}

// refAppendUnits is the per-unit enumeration the runs replaced: it steps
// unit by unit, so a 32KB request of 64B units lists 512 entries. It is the
// reference for appendUnits.
func refAppendUnits(dst []unitSpan, sp meta.StreamPart, chunkBase uint64, r Request, rule granRule) []unitSpan {
	end := r.Addr + uint64(r.Size)
	if rule.fixed {
		for a := meta.AlignGran(r.Addr, rule.gran); a < end; a += rule.gran.Bytes() {
			dst = append(dst, unitSpan{base: a, gran: rule.gran})
		}
		return dst
	}
	for addr := r.Addr; addr < end; {
		u := sp.UnitOf(int((addr - chunkBase) / meta.BlockSize))
		g := u.Gran
		base := chunkBase + uint64(u.Block)*meta.BlockSize
		if g > rule.cap {
			g = rule.cap
			base = meta.AlignGran(addr, g)
		}
		dst = append(dst, unitSpan{base: base, gran: g})
		addr = base + g.Bytes()
	}
	return dst
}

// randomStreamPart mixes 32KB chunks, 4KB groups, 512B partitions and fine
// partitions.
func randomStreamPart(rng *rand.Rand) meta.StreamPart {
	if rng.Intn(8) == 0 {
		return meta.AllStream
	}
	var sp meta.StreamPart
	for g := 0; g < 8; g++ {
		var bits uint64
		switch rng.Intn(4) {
		case 0:
			bits = 0xff
		case 1:
			bits = uint64(rng.Intn(256))
		}
		sp |= meta.StreamPart(bits << (8 * uint(g)))
	}
	return sp
}

// Expanded unit by unit, appendUnits' runs equal the per-unit reference for
// every fixed granularity and for table rules capped at 4KB and 32KB, over
// random encodings and random 64B-aligned requests inside one chunk. The
// runs are maximal: none continues the run before it, which would leave
// one counter line's or MAC line's units split across runs.
func TestUnitRunsMatchPerUnitReference(t *testing.T) {
	rules := []granRule{table32K, table4K}
	for _, g := range meta.Grans {
		rules = append(rules, granRule{fixed: true, gran: g})
	}
	rng := rand.New(rand.NewSource(1))
	var runs []unitRun
	var got, want []unitSpan
	for i := 0; i < 20000; i++ {
		sp := randomStreamPart(rng)
		chunkBase := uint64(rng.Intn(128)) * meta.ChunkSize
		first := rng.Intn(meta.BlocksPerChunk)
		blocks := 1 + rng.Intn(meta.BlocksPerChunk-first)
		if rng.Intn(2) == 0 {
			blocks = 1 + rng.Intn(min(16, meta.BlocksPerChunk-first))
		}
		r := Request{Addr: chunkBase + uint64(first)*meta.BlockSize, Size: blocks * meta.BlockSize}
		rule := rules[rng.Intn(len(rules))]
		what := fmt.Sprintf("rule %+v, encoding %#x, request %+v", rule, uint64(sp), r)

		runs = appendUnits(runs[:0], sp, r, rule)
		got = got[:0]
		for k, u := range runs {
			if u.n < 1 {
				t.Fatalf("%s: empty run %+v", what, u)
			}
			if k > 0 {
				prev := runs[k-1]
				if prev.gran == u.gran && prev.base+uint64(prev.n)*u.gran.Bytes() == u.base {
					t.Fatalf("%s: run %+v continues run %+v", what, u, prev)
				}
			}
			for j := range u.n {
				got = append(got, unitSpan{base: u.base + uint64(j)*u.gran.Bytes(), gran: u.gran})
			}
		}
		want = refAppendUnits(want[:0], sp, chunkBase, r, rule)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: runs %+v expand to %+v, reference %+v", what, runs, got, want)
		}
	}
}
