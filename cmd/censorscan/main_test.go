package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/censor"
)

// quickTablesDigest is the SHA-256 of `censorscan -quick` standard output
// at the default seed: every paper table and figure on the reduced world.
// A change here is a change of the program's answers and has to be
// deliberate.
const quickTablesDigest = "fb9392dde7332f40c84df25af3178c496cbca4baf88b7f887ea302507ee1dd50"

// TestQuickTablesGolden holds the paper-table rendering byte-identical.
func TestQuickTablesGolden(t *testing.T) {
	world, _, err := pickScenario("", true)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := censor.NewSession(context.Background(), censor.WithScenario(world))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	var out bytes.Buffer
	runTables(&out, sess, true, "", false)
	sum := sha256.Sum256(out.Bytes())
	if got := hex.EncodeToString(sum[:]); got != quickTablesDigest {
		t.Fatalf("censorscan -quick output digest = %s, want %s; output:\n%s", got, quickTablesDigest, out.Bytes())
	}
}
