package chem

import "testing"

var benchSMILES = []string{
	"CC(=O)Oc1ccccc1C(=O)O",         // aspirin
	"Cn1cnc2c1c(=O)n(C)c(=O)n2C",    // caffeine
	"CC(C)Cc1ccc(cc1)C(C)C(=O)O",    // ibuprofen
	"c1ccc2ccccc2c1",                // naphthalene
	"CC(C)(C)NCC(O)c1ccc(O)c(CO)c1", // salbutamol-ish
}

func BenchmarkParseSMILES(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ParseSMILES(benchSMILES[i%len(benchSMILES)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFingerprint(b *testing.B) {
	mols := make([]*Mol, len(benchSMILES))
	for i, s := range benchSMILES {
		m, err := ParseSMILES(s)
		if err != nil {
			b.Fatal(err)
		}
		mols[i] = m
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mols[i%len(mols)].ComputeFingerprint(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTanimoto(b *testing.B) {
	m1, _ := ParseSMILES(benchSMILES[0])
	m2, _ := ParseSMILES(benchSMILES[2])
	f1, _ := m1.ComputeFingerprint()
	f2, _ := m2.ComputeFingerprint()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f1.Tanimoto(f2)
	}
}
