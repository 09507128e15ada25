package mutate

import (
	"go/types"
	"strings"

	"unimem/internal/lint"
)

// The unit-fact seeds of the domain tier. Each seeded parameter, result
// and struct field carries one fact naming the address/index domain of the
// protection geometry it lives in (PAPER.md section 4.2-4.4, Eq. 1-4): byte
// addresses, 64B block indexes, 512B partition indexes, 32KB chunk
// indexes, DRAM beat counts, and granularities. The facts are declared on
// the signatures of the internal/meta geometry helpers, the single place
// the raw unit relationships are allowed to live. unit-swap pairs helpers
// whose Go signatures are identical but whose fact shapes differ: exactly
// the mixups the type checker cannot catch and the suite must.
type fact uint8

const (
	// factNone means the position carries no unit fact.
	factNone fact = iota
	// factByteAddr marks byte addresses, byte offsets, and byte sizes.
	factByteAddr
	// factBlockIdx marks 64B block indexes (global or chunk-relative) and
	// block counts.
	factBlockIdx
	// factPartIdx marks 512B partition indexes and partition counts.
	factPartIdx
	// factChunkIdx marks 32KB chunk indexes and chunk counts.
	factChunkIdx
	// factBeat marks DRAM beat counts.
	factBeat
	// factGran marks granularity values (meta.Gran).
	factGran
)

// String returns the fact's label.
func (f fact) String() string {
	switch f {
	case factByteAddr:
		return "byte-address"
	case factBlockIdx:
		return "block-index"
	case factPartIdx:
		return "partition-index"
	case factChunkIdx:
		return "chunk-index"
	case factBeat:
		return "beat-count"
	case factGran:
		return "granularity"
	}
	return "unknown"
}

// sigFacts seeds the parameter and result unit facts of one function or
// method. A factNone entry leaves that position unconstrained.
type sigFacts struct {
	params  []fact
	results []fact
}

// Package paths of the seeded declarations.
const (
	metaPath    = "unimem/internal/meta"
	corePath    = "unimem/internal/core"
	treePath    = "unimem/internal/tree"
	trackerPath = "unimem/internal/tracker"
)

// seedSigs declares which domain each argument and result of the
// internal/meta geometry helpers (plus the beat-rounding helper of
// internal/core) lives in. Keys are "pkg-path.Func" for functions and
// "pkg-path.Type.Method" for methods.
var seedSigs = map[string]sigFacts{
	metaPath + ".ChunkIndex":   {params: []fact{factByteAddr}, results: []fact{factChunkIdx}},
	metaPath + ".ChunkBase":    {params: []fact{factByteAddr}, results: []fact{factByteAddr}},
	metaPath + ".PartIndex":    {params: []fact{factByteAddr}, results: []fact{factPartIdx}},
	metaPath + ".BlockIndex":   {params: []fact{factByteAddr}, results: []fact{factBlockIdx}},
	metaPath + ".BlockInChunk": {params: []fact{factByteAddr}, results: []fact{factBlockIdx}},
	metaPath + ".AlignGran":    {params: []fact{factByteAddr, factGran}, results: []fact{factByteAddr}},
	metaPath + ".AlignBlock":   {params: []fact{factByteAddr}, results: []fact{factByteAddr}},
	metaPath + ".Aligned":      {params: []fact{factByteAddr, factByteAddr}},
	metaPath + ".NewGeometry":  {params: []fact{factByteAddr}},
	metaPath + ".GranForBytes": {params: []fact{factByteAddr}, results: []fact{factGran, factNone}},

	metaPath + ".Geometry.CounterEntryIndex": {params: []fact{factNone, factBlockIdx}},
	metaPath + ".Geometry.CounterLineAddr":   {params: []fact{factNone, factBlockIdx}, results: []fact{factByteAddr}},
	metaPath + ".Geometry.CounterSlot":       {params: []fact{factNone, factBlockIdx}},
	metaPath + ".Geometry.RootSlot":          {params: []fact{factBlockIdx}},
	metaPath + ".Geometry.MACLineAddr":       {params: []fact{factChunkIdx, factNone}, results: []fact{factByteAddr}},
	metaPath + ".Geometry.MACAddr":           {params: []fact{factChunkIdx, factNone}, results: []fact{factByteAddr}},
	metaPath + ".Geometry.MACAddrFor":        {params: []fact{factByteAddr, factNone}, results: []fact{factByteAddr, factGran}},
	metaPath + ".Geometry.GTEntryAddr":       {params: []fact{factChunkIdx}, results: []fact{factByteAddr}},
	metaPath + ".Geometry.WalkLen":           {params: []fact{factGran}},
	metaPath + ".Geometry.Blocks":            {results: []fact{factBlockIdx}},
	metaPath + ".Geometry.Chunks":            {results: []fact{factChunkIdx}},
	metaPath + ".Geometry.MetadataBytes":     {results: []fact{factByteAddr}},

	metaPath + ".Gran.Bytes":  {results: []fact{factByteAddr}},
	metaPath + ".Gran.Blocks": {results: []fact{factBlockIdx}},

	metaPath + ".Table.Current":    {params: []fact{factChunkIdx}},
	metaPath + ".Table.Next":       {params: []fact{factChunkIdx}},
	metaPath + ".Table.Pending":    {params: []fact{factChunkIdx, factBlockIdx}},
	metaPath + ".Table.SetNext":    {params: []fact{factChunkIdx, factNone}},
	metaPath + ".Table.CommitUnit": {params: []fact{factChunkIdx, factBlockIdx}, results: []fact{factGran, factGran}},
	metaPath + ".Table.CommitAll":  {params: []fact{factChunkIdx}},

	metaPath + ".StreamPart.GranOf":      {params: []fact{factPartIdx}, results: []fact{factGran}},
	metaPath + ".StreamPart.GranOfBlock": {params: []fact{factBlockIdx}, results: []fact{factGran}},
	metaPath + ".StreamPart.MACSlot":     {params: []fact{factBlockIdx}, results: []fact{factNone, factGran}},
	metaPath + ".StreamPart.UnitOf":      {params: []fact{factBlockIdx}},
	metaPath + ".StreamPart.IsStream":    {params: []fact{factPartIdx}},
	metaPath + ".StreamPart.PromoteMask": {params: []fact{factPartIdx, factPartIdx}},
	metaPath + ".StreamPart.DemoteMask":  {params: []fact{factPartIdx, factPartIdx}},

	corePath + ".beatsOf": {params: []fact{factByteAddr}, results: []fact{factBeat}},
}

// seedFields declares the unit domain of load-bearing struct fields. Slice
// fields carry the fact of their elements.
var seedFields = map[string]fact{
	corePath + ".Request.Addr": factByteAddr,
	corePath + ".Request.Size": factByteAddr,

	metaPath + ".Geometry.RegionBytes": factByteAddr,
	metaPath + ".Geometry.MACBase":     factByteAddr,
	metaPath + ".Geometry.CounterBase": factByteAddr,
	metaPath + ".Geometry.GTBase":      factByteAddr,
	metaPath + ".Geometry.End":         factByteAddr,
	metaPath + ".Unit.Block":           factBlockIdx,

	treePath + ".Walk.Fetches": factByteAddr,

	trackerPath + ".Detection.Chunk": factChunkIdx,
}

// seedUnitFacts resolves the seed tables against the loaded packages: the
// parameter and result objects of the seeded helpers and the seeded struct
// fields, each with its unit fact. Entries that do not resolve (fixture
// modules that stub only part of meta) are skipped.
func seedUnitFacts(pkgs []*lint.Package) map[types.Object]fact {
	seeds := map[types.Object]fact{}
	byPath := map[string]*lint.Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	for key, sig := range seedSigs {
		fn := lookupFunc(byPath, key)
		if fn == nil {
			continue
		}
		s := fn.Type().(*types.Signature)
		for i, f := range sig.params {
			if f != factNone && i < s.Params().Len() {
				seeds[s.Params().At(i)] = f
			}
		}
		for i, f := range sig.results {
			if f != factNone && i < s.Results().Len() {
				seeds[s.Results().At(i)] = f
			}
		}
	}
	for key, f := range seedFields {
		if obj := lookupField(byPath, key); obj != nil {
			seeds[obj] = f
		}
	}
	return seeds
}

// lookupFunc resolves "pkg-path.Func" or "pkg-path.Type.Method" to its
// object in the loaded module.
func lookupFunc(byPath map[string]*lint.Package, key string) *types.Func {
	pkgPath, rest := splitSeedKey(key)
	p := byPath[pkgPath]
	if p == nil {
		return nil
	}
	parts := strings.Split(rest, ".")
	switch len(parts) {
	case 1:
		fn, _ := p.Types.Scope().Lookup(parts[0]).(*types.Func)
		return fn
	case 2:
		tn, ok := p.Types.Scope().Lookup(parts[0]).(*types.TypeName)
		if !ok {
			return nil
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			return nil
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == parts[1] {
				return m
			}
		}
	}
	return nil
}

// lookupField resolves "pkg-path.Type.Field" to the field object.
func lookupField(byPath map[string]*lint.Package, key string) types.Object {
	pkgPath, rest := splitSeedKey(key)
	p := byPath[pkgPath]
	if p == nil {
		return nil
	}
	parts := strings.Split(rest, ".")
	if len(parts) != 2 {
		return nil
	}
	tn, ok := p.Types.Scope().Lookup(parts[0]).(*types.TypeName)
	if !ok {
		return nil
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == parts[1] {
			return f
		}
	}
	return nil
}

// splitSeedKey separates the package path (everything up to the last '/')
// plus its first dotted segment from the member part of a seed key.
func splitSeedKey(key string) (pkgPath, rest string) {
	slash := strings.LastIndex(key, "/")
	dot := strings.Index(key[slash+1:], ".")
	if dot < 0 {
		return key, ""
	}
	return key[:slash+1+dot], key[slash+1+dot+1:]
}
