package tablesvc

import (
	"fmt"
	"maps"
	"os"
	"testing"

	"azureobs/internal/sim"
)

// TestMain switches every engine the suite constructs into fail-fast
// invariant checking, so each simulation run in the package doubles as an
// invariant test (event-time monotonicity, resource levels, queue
// conservation, VM state transitions). After the run it checks that the
// property map every PaddedEntity shares still reads {A:1, B:2, C:"fixed"}:
// a test that wrote through an entity's Props would have corrupted every
// padded entity in the process.
func TestMain(m *testing.M) {
	sim.SetDefaultInvariants(true)
	code := m.Run()
	want := map[string]Prop{"A": IntProp(1), "B": IntProp(2), "C": StrProp("fixed")}
	if !maps.Equal(paperProps, want) {
		fmt.Fprintf(os.Stderr, "FAIL: shared PaddedEntity properties were written through: %v, want %v\n", paperProps, want)
		code = 1
	}
	os.Exit(code)
}
