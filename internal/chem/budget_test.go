package chem_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"drugtree/internal/chem"
	"drugtree/internal/datagen"
)

// cliqueSMILES returns a SMILES string of n carbons each bonded to
// every other: a chain, closed into a clique by one numbered ring bond
// per pair of atoms the chain leaves apart.
func cliqueSMILES(n int) string {
	label := map[[2]int]string{}
	for i := range n {
		for j := i + 2; j < n; j++ {
			if k := len(label) + 1; k < 10 {
				label[[2]int{i, j}] = fmt.Sprint(k)
			} else {
				label[[2]int{i, j}] = fmt.Sprintf("%%%d", k)
			}
		}
	}
	var b strings.Builder
	for i := range n {
		b.WriteString("C")
		for j := range n {
			b.WriteString(label[[2]int{min(i, j), max(i, j)}])
		}
	}
	return b.String()
}

// TestDenseMoleculeRefusedFast: a 13-atom clique has over 10 million
// paths of up to 7 atoms, ≈ 0.3 s to walk them all. Its fingerprint
// stops at the path budget and is refused, parse included, in under
// 5 ms.
func TestDenseMoleculeRefusedFast(t *testing.T) {
	src := cliqueSMILES(13)
	start := time.Now()
	m, err := chem.ParseSMILES(src)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	if len(m.Bonds) != 13*12/2 {
		t.Fatalf("%q holds %d bonds, want %d", src, len(m.Bonds), 13*12/2)
	}
	_, err = m.ComputeFingerprint()
	took := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "paths") {
		t.Fatalf("clique fingerprint: err = %v, want a path-budget refusal", err)
	}
	if took > 5*time.Millisecond {
		t.Fatalf("the clique took %v to refuse, want < 5 ms", took)
	}
}

// TestD1FingerprintsUnchanged: the path budget changes no fingerprint of
// dataset D1's ligands (the repository benchmark's D1: seed 1, 16
// families of 50 proteins, 200 ligands), so no TANIMOTO answer over D1
// moves. The digest is of their fingerprints in ligand order as computed
// before the budget existed.
func TestD1FingerprintsUnchanged(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.NumFamilies, cfg.ProteinsPerFamily, cfg.NumLigands, cfg.ActivityDensity = 16, 50, 200, 0.3
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, l := range ds.Ligands {
		m, err := chem.ParseSMILES(l.SMILES)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := m.ComputeFingerprint()
		if err != nil {
			t.Fatalf("%s (%s): %v", l.ID, l.SMILES, err)
		}
		binary.Write(h, binary.LittleEndian, fp[:])
	}
	const want = "71a59fcde7cf9ad3e4734bc669506c347c1ddc5cf420d897ea4f95d47c9eceda"
	if got := fmt.Sprintf("%x", h.Sum(nil)); len(ds.Ligands) != 200 || got != want {
		t.Fatalf("%d D1 ligands fingerprint to %s, want 200 to %s", len(ds.Ligands), got, want)
	}
}
