// Package nested is a module of its own inside mutmod's tree. It imports
// mutmod, so a loader that walked directories would route mutmod's mutants
// here, and the test below would score every one of them as killed. The go
// tool leaves a nested module out of mutmod's packages.
package nested

import (
	"testing"

	"mutmod"
)

func TestAlwaysFails(t *testing.T) {
	t.Fatalf("a nested module's test ran as part of mutmod: Clamp(1, 0, 1) = %d", mutmod.Clamp(1, 0, 1))
}
