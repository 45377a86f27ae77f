package chem

import (
	"math"
	"testing"
)

func mustParse(t *testing.T, s string) *Mol {
	t.Helper()
	m, err := ParseSMILES(s)
	if err != nil {
		t.Fatalf("ParseSMILES(%q): %v", s, err)
	}
	return m
}

func TestParseMethane(t *testing.T) {
	m := mustParse(t, "C")
	if len(m.Atoms) != 1 || len(m.Bonds) != 0 {
		t.Fatalf("atoms=%d bonds=%d", len(m.Atoms), len(m.Bonds))
	}
	if m.Atoms[0].HCount != 4 {
		t.Fatalf("methane H count = %d, want 4", m.Atoms[0].HCount)
	}
	if m.Formula() != "CH4" {
		t.Fatalf("formula = %q, want CH4", m.Formula())
	}
}

func TestParseEthanol(t *testing.T) {
	m := mustParse(t, "CCO")
	if m.Formula() != "C2H6O" {
		t.Fatalf("formula = %q, want C2H6O", m.Formula())
	}
	// Weight ≈ 46.07.
	if w := m.Weight(); math.Abs(w-46.07) > 0.05 {
		t.Fatalf("weight = %g, want ≈46.07", w)
	}
}

func TestParseDoubleTripleBonds(t *testing.T) {
	co2 := mustParse(t, "O=C=O")
	if co2.Formula() != "CO2" {
		t.Fatalf("CO2 formula = %q", co2.Formula())
	}
	hcn := mustParse(t, "C#N")
	if hcn.Formula() != "CHN" {
		t.Fatalf("HCN formula = %q", hcn.Formula())
	}
	if hcn.Bonds[0].Order != BondTriple {
		t.Fatalf("bond order = %v", hcn.Bonds[0].Order)
	}
}

func TestParseBranches(t *testing.T) {
	// Isobutane: CC(C)C → C4H10.
	m := mustParse(t, "CC(C)C")
	if m.Formula() != "C4H10" {
		t.Fatalf("isobutane formula = %q", m.Formula())
	}
	// tert-butanol: CC(C)(C)O → C4H10O.
	m2 := mustParse(t, "CC(C)(C)O")
	if m2.Formula() != "C4H10O" {
		t.Fatalf("tert-butanol formula = %q", m2.Formula())
	}
}

func TestParseCyclohexane(t *testing.T) {
	m := mustParse(t, "C1CCCCC1")
	if len(m.Atoms) != 6 || len(m.Bonds) != 6 {
		t.Fatalf("atoms=%d bonds=%d, want 6/6", len(m.Atoms), len(m.Bonds))
	}
	if m.Formula() != "C6H12" {
		t.Fatalf("cyclohexane formula = %q", m.Formula())
	}
	if m.RingCount() != 1 {
		t.Fatalf("ring count = %d, want 1", m.RingCount())
	}
}

func TestParseBenzene(t *testing.T) {
	m := mustParse(t, "c1ccccc1")
	if m.Formula() != "C6H6" {
		t.Fatalf("benzene formula = %q, want C6H6", m.Formula())
	}
	for _, b := range m.Bonds {
		if b.Order != BondAromatic {
			t.Fatalf("benzene has non-aromatic bond %v", b)
		}
	}
	if m.RingCount() != 1 {
		t.Fatalf("ring count = %d", m.RingCount())
	}
}

func TestParsePyridineAndPhenol(t *testing.T) {
	// Pyridine c1ccncc1 → C5H5N.
	m := mustParse(t, "c1ccncc1")
	if m.Formula() != "C5H5N" {
		t.Fatalf("pyridine formula = %q, want C5H5N", m.Formula())
	}
	// Phenol c1ccccc1O → C6H6O.
	m2 := mustParse(t, "c1ccccc1O")
	if m2.Formula() != "C6H6O" {
		t.Fatalf("phenol formula = %q, want C6H6O", m2.Formula())
	}
}

func TestParseNaphthalene(t *testing.T) {
	m := mustParse(t, "c1ccc2ccccc2c1")
	if m.Formula() != "C10H8" {
		t.Fatalf("naphthalene formula = %q, want C10H8", m.Formula())
	}
	if m.RingCount() != 2 {
		t.Fatalf("ring count = %d, want 2", m.RingCount())
	}
}

func TestParseBracketAtoms(t *testing.T) {
	m := mustParse(t, "[NH4+]")
	a := m.Atoms[0]
	if a.Element != "N" || a.HCount != 4 || a.Charge != 1 {
		t.Fatalf("ammonium parsed as %+v", a)
	}
	m2 := mustParse(t, "[13CH4]")
	if m2.Atoms[0].Isotope != 13 || m2.Atoms[0].HCount != 4 {
		t.Fatalf("13C methane parsed as %+v", m2.Atoms[0])
	}
	m3 := mustParse(t, "[O-2]")
	if m3.Atoms[0].Charge != -2 {
		t.Fatalf("oxide charge = %d", m3.Atoms[0].Charge)
	}
	// Bracket atom without H gets none implicitly.
	m4 := mustParse(t, "[C]")
	if m4.Atoms[0].HCount != 0 {
		t.Fatalf("[C] H count = %d, want 0", m4.Atoms[0].HCount)
	}
}

func TestParseHalogens(t *testing.T) {
	m := mustParse(t, "ClCCBr")
	if m.Formula() != "C2H4BrCl" {
		t.Fatalf("formula = %q, want C2H4BrCl", m.Formula())
	}
}

func TestParseDisconnected(t *testing.T) {
	m := mustParse(t, "C.C")
	if len(m.Atoms) != 2 || len(m.Bonds) != 0 {
		t.Fatalf("atoms=%d bonds=%d", len(m.Atoms), len(m.Bonds))
	}
	if m.RingCount() != 0 {
		t.Fatalf("ring count = %d", m.RingCount())
	}
}

func TestParsePercentRingClosure(t *testing.T) {
	// Same molecule as cyclohexane but via %12 closure.
	m := mustParse(t, "C%12CCCCC%12")
	if len(m.Bonds) != 6 {
		t.Fatalf("bonds = %d, want 6", len(m.Bonds))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"C(",      // unclosed branch
		"C)",      // unmatched close
		"C1CC",    // unclosed ring
		"C=",      // dangling bond
		"(C)C",    // branch before atom
		"C@H",     // stereo marker
		"[C",      // unterminated bracket
		"[]",      // empty bracket
		"Cx",      // unknown atom
		"C11",     // ring closes onto itself
		"%1C",     // truncated %nn
		"1CC",     // closure before atom
		"[Qq]",    // unsupported element
		"C/C=C/C", // cis/trans marker
	}
	for _, s := range bad {
		if _, err := ParseSMILES(s); err == nil {
			t.Errorf("ParseSMILES(%q) accepted", s)
		}
	}
}

func TestAspirinFormula(t *testing.T) {
	// Aspirin: CC(=O)Oc1ccccc1C(=O)O → C9H8O4, MW ≈ 180.16.
	m := mustParse(t, "CC(=O)Oc1ccccc1C(=O)O")
	if m.Formula() != "C9H8O4" {
		t.Fatalf("aspirin formula = %q, want C9H8O4", m.Formula())
	}
	if w := m.Weight(); math.Abs(w-180.16) > 0.1 {
		t.Fatalf("aspirin weight = %g, want ≈180.16", w)
	}
}

func TestCaffeineFormula(t *testing.T) {
	// Caffeine: Cn1cnc2c1c(=O)n(C)c(=O)n2C → C8H10N4O2.
	m := mustParse(t, "Cn1cnc2c1c(=O)n(C)c(=O)n2C")
	if m.Formula() != "C8H10N4O2" {
		t.Fatalf("caffeine formula = %q, want C8H10N4O2", m.Formula())
	}
}

func TestFingerprintSelfSimilarity(t *testing.T) {
	m := mustParse(t, "CC(=O)Oc1ccccc1C(=O)O")
	fp := m.ComputeFingerprint()
	if fp.PopCount() == 0 {
		t.Fatal("fingerprint is empty")
	}
	if sim := fp.Tanimoto(fp); sim != 1 {
		t.Fatalf("self Tanimoto = %g, want 1", sim)
	}
}

func TestFingerprintSimilarityOrdering(t *testing.T) {
	ethanol := mustParse(t, "CCO").ComputeFingerprint()
	propanol := mustParse(t, "CCCO").ComputeFingerprint()
	benzene := mustParse(t, "c1ccccc1").ComputeFingerprint()
	near := ethanol.Tanimoto(propanol)
	far := ethanol.Tanimoto(benzene)
	if near <= far {
		t.Fatalf("ethanol~propanol (%g) not more similar than ethanol~benzene (%g)", near, far)
	}
}

func TestFingerprintSymmetric(t *testing.T) {
	a := mustParse(t, "CC(C)Cc1ccc(cc1)C(C)C(=O)O").ComputeFingerprint() // ibuprofen
	b := mustParse(t, "CC(=O)Oc1ccccc1C(=O)O").ComputeFingerprint()      // aspirin
	if s1, s2 := a.Tanimoto(b), b.Tanimoto(a); s1 != s2 {
		t.Fatalf("Tanimoto asymmetric: %g vs %g", s1, s2)
	}
}

func TestTanimotoEmptyFingerprints(t *testing.T) {
	var a, b Fingerprint
	if s := a.Tanimoto(&b); s != 1 {
		t.Fatalf("empty Tanimoto = %g, want 1", s)
	}
}

func TestTanimotoRange(t *testing.T) {
	mols := []string{"C", "CCO", "c1ccccc1", "CC(=O)Oc1ccccc1C(=O)O", "C#N", "ClCCBr"}
	fps := make([]*Fingerprint, len(mols))
	for i, s := range mols {
		fps[i] = mustParse(t, s).ComputeFingerprint()
	}
	for i := range fps {
		for j := range fps {
			s := fps[i].Tanimoto(fps[j])
			if s < 0 || s > 1 {
				t.Fatalf("Tanimoto(%s,%s) = %g out of range", mols[i], mols[j], s)
			}
		}
	}
}

func TestValidateCatchesBadGraphs(t *testing.T) {
	m := &Mol{Atoms: []Atom{{Element: "C"}}, Bonds: []Bond{{A: 0, B: 0, Order: BondSingle}}}
	if err := m.Validate(); err == nil {
		t.Error("self-loop accepted")
	}
	m2 := &Mol{Atoms: []Atom{{Element: "C"}, {Element: "C"}},
		Bonds: []Bond{{A: 0, B: 1, Order: BondSingle}, {A: 1, B: 0, Order: BondDouble}}}
	if err := m2.Validate(); err == nil {
		t.Error("duplicate bond accepted")
	}
	m3 := &Mol{Atoms: []Atom{{Element: "C"}}, Bonds: []Bond{{A: 0, B: 5, Order: BondSingle}}}
	if err := m3.Validate(); err == nil {
		t.Error("out-of-range bond accepted")
	}
}

func TestBondOrderString(t *testing.T) {
	if BondSingle.String() != "-" || BondDouble.String() != "=" ||
		BondTriple.String() != "#" || BondAromatic.String() != ":" {
		t.Fatal("bond order strings wrong")
	}
}
