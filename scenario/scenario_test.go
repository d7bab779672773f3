package scenario

import (
	"go/build"
	"strings"
	"testing"
)

// TestLeafPackage: the schema imports nothing from the rest of the
// module, so specs can be built and validated without the simulator.
func TestLeafPackage(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if imp == "repro" || strings.HasPrefix(imp, "repro/") {
			t.Errorf("scenario imports %s; it must stay a leaf package", imp)
		}
	}
}
