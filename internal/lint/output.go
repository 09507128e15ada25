package lint

import (
	"encoding/json"
	"io"
)

// Machine-readable output. The encoder is deterministic: findings are
// already sorted by (file, line, col, rule, msg), the struct below has a
// fixed field order, and encoding/json emits struct fields in declaration
// order — so two runs over the same tree produce byte-identical bytes,
// which baseline diffing relies on.

// jsonFinding is the stable JSON shape of one finding.
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

// WriteJSON renders findings as an indented JSON array (always an array,
// never null, so consumers can iterate without a nil check).
func WriteJSON(w io.Writer, fs []Finding) error {
	out := make([]jsonFinding, 0, len(fs))
	for _, f := range fs {
		out = append(out, jsonFinding{
			File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
			Rule: f.Rule, Msg: f.Msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
