package chem

import (
	"math"
	"testing"
)

// FuzzParseSMILES: SMILES arrives from outside the program (TANIMOTO
// literals over HTTP and the mobile protocol, ligand rows from the
// sources), so the parser must never panic on any input. A string
// that parses is parsed the same way twice: the same formula and the
// same fingerprint, or a path-budget refusal both times. A molecule
// with at least one atom has a finite, positive weight, a non-empty
// formula and, within the budget, a self-Tanimoto of 1 (as has the
// empty fingerprint, TestTanimotoEmptyFingerprints).
func FuzzParseSMILES(f *testing.F) {
	for _, s := range []string{
		// Molecules the parser tests accept.
		"C", "N", "CCO", "CCCO", "O=C=O", "C#N", "CC(C)C", "CC(C)(C)O",
		"C1CCCCC1", "C%12CCCCC%12", "c1ccccc1", "c1ccccc1O", "c1ccncc1",
		"c1ccc2ccccc2c1", "CC(=O)Oc1ccccc1C(=O)O", "Cn1cnc2c1c(=O)n(C)c(=O)n2C",
		"CC(C)Cc1ccc(cc1)C(C)C(=O)O", "ClCCBr", "C.C", "[NH4+]", "[13CH4]",
		"[O-2]", "[C]", "[CH2]",
		// Strings they reject.
		"C(", "C)", "C1CC", "C=", "(C)C", "C@H", "[C", "[]", "Cx", "C11",
		"%1C", "1CC", "[Qq]", "C/C=C/C",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ParseSMILES(src)
		if err != nil {
			return
		}
		again, err := ParseSMILES(src)
		if err != nil {
			t.Fatalf("%q parsed once, then failed: %v", src, err)
		}
		fp, err := m.ComputeFingerprint()
		fp2, err2 := again.ComputeFingerprint()
		if m.Formula() != again.Formula() || (err == nil) != (err2 == nil) || err == nil && *fp != *fp2 {
			t.Fatalf("%q parses to %s, then to %s, or to two fingerprints (%v, %v)", src, m.Formula(), again.Formula(), err, err2)
		}
		if err == nil && fp.Tanimoto(fp) != 1 {
			t.Fatalf("%q: self Tanimoto = %g", src, fp.Tanimoto(fp))
		}
		if len(m.Atoms) == 0 {
			return
		}
		if w := m.Weight(); !(w > 0) || math.IsInf(w, 0) {
			t.Fatalf("%q: weight %g", src, w)
		}
		if m.Formula() == "" {
			t.Fatalf("%q: empty formula for %d atoms", src, len(m.Atoms))
		}
	})
}
