package gen

import (
	"testing"

	"superglue/internal/analysis/driftcheck"
)

// TestCommittedStubsMatchGenerator regenerates every typed client from its
// IDL and requires byte equality with the committed files, and no Go file
// or directory beyond them, so `go run ./cmd/sgc -builtin -o internal/gen`
// is always reflected in the tree. The same check runs as `sgc vet -gen`
// in `make lint`.
func TestCommittedStubsMatchGenerator(t *testing.T) {
	drifts, err := driftcheck.Check(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range drifts {
		t.Error(d)
	}
}
