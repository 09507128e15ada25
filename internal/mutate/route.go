package mutate

import (
	"slices"
	"sort"
)

// Routing sends each mutant only to the test packages that can observe
// it: the mutated package's own tests first (the cheapest kill), then
// every other test-bearing package whose transitive import closure —
// test files included — contains the mutated package, ordered by closure
// size so the most focused suites run before the integration-shaped ones.
// The import graph is the one `go list` reported; an import that is not
// one of the module's listed packages is outside the module.

// closureOf returns the transitive module-internal import closure of a
// package (the package itself included), memoized.
func (m *Module) closureOf(path string) map[string]bool {
	if c, ok := m.closure[path]; ok {
		return c
	}
	c := map[string]bool{path: true}
	m.closure[path] = c // break cycles (none expected, but cheap insurance)
	lp := m.listed[path]
	for _, imp := range slices.Concat(lp.Imports, lp.TestImports, lp.XTestImports) {
		if m.listed[imp] == nil {
			continue
		}
		for dep := range m.closureOf(imp) {
			c[dep] = true
		}
	}
	return c
}

// hasTests reports whether `go test` of the package runs any test file.
func (m *Module) hasTests(path string) bool {
	lp := m.listed[path]
	return len(lp.TestGoFiles)+len(lp.XTestGoFiles) > 0
}

// candidates returns the test packages that can kill a mutant in pkg, in
// execution order: pkg's own tests first, then other test-bearing
// packages importing it transitively, by (closure size, path).
func (m *Module) candidates(pkg string) []string {
	var rest []string
	for _, p := range m.Pkgs {
		if p.Path != pkg && m.hasTests(p.Path) && m.closureOf(p.Path)[pkg] {
			rest = append(rest, p.Path)
		}
	}
	sort.Slice(rest, func(i, j int) bool {
		si, sj := len(m.closureOf(rest[i])), len(m.closureOf(rest[j]))
		if si != sj {
			return si < sj
		}
		return rest[i] < rest[j]
	})
	var out []string
	if m.hasTests(pkg) {
		out = append(out, pkg)
	}
	return append(out, rest...)
}
