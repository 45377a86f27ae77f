// Package chem provides the ligand-side substrate: a SMILES-subset
// parser producing molecular graphs, formula and weight computation,
// and path-based hashed fingerprints with Tanimoto similarity for
// ligand comparison queries.
package chem

import (
	"fmt"
	"sort"
	"strings"
)

// Atom is one vertex of a molecular graph.
type Atom struct {
	// Element is the element symbol with canonical capitalization
	// ("C", "Cl", "Br", ...).
	Element string
	// Aromatic marks atoms written lowercase in SMILES.
	Aromatic bool
	// Charge is the formal charge from a bracket expression.
	Charge int
	// HCount is the hydrogen count: explicit from brackets, otherwise
	// filled in by the implicit-hydrogen rule at parse time.
	HCount int
	// Isotope is the isotope number from a bracket expression, or 0.
	Isotope int
}

// BondOrder enumerates bond types.
type BondOrder uint8

const (
	BondSingle BondOrder = iota + 1
	BondDouble
	BondTriple
	BondAromatic
)

func (b BondOrder) String() string {
	switch b {
	case BondSingle:
		return "-"
	case BondDouble:
		return "="
	case BondTriple:
		return "#"
	case BondAromatic:
		return ":"
	}
	return "?"
}

// order returns the integral valence contribution of the bond
// (aromatic counts as 1; the aromatic system correction is applied
// separately, matching the Daylight implicit-H convention closely
// enough for formula purposes).
func (b BondOrder) order() int {
	switch b {
	case BondDouble:
		return 2
	case BondTriple:
		return 3
	default:
		return 1
	}
}

// Bond is one edge of a molecular graph.
type Bond struct {
	A, B  int // atom indices
	Order BondOrder
}

// Mol is a molecular graph parsed from SMILES.
type Mol struct {
	Atoms []Atom
	Bonds []Bond
	// adj[i] lists bond indices incident to atom i.
	adj [][]int
	// explicitH lists atom indices whose hydrogen count was written
	// explicitly in a bracket expression (never overwritten by the
	// implicit-hydrogen rule).
	explicitH []int
	// SMILES is the input string the molecule was parsed from.
	SMILES string
}

// atomicWeights holds standard atomic weights for the supported
// elements.
var atomicWeights = map[string]float64{
	"H": 1.008, "B": 10.81, "C": 12.011, "N": 14.007, "O": 15.999,
	"F": 18.998, "P": 30.974, "S": 32.06, "Cl": 35.45, "Br": 79.904,
	"I": 126.904, "Si": 28.085, "Se": 78.971, "Na": 22.990, "K": 39.098,
	"Li": 6.94, "Ca": 40.078, "Mg": 24.305, "Zn": 65.38, "Fe": 55.845,
}

// defaultValence gives the default valence used for implicit-hydrogen
// filling (Daylight organic-subset rules).
var defaultValence = map[string]int{
	"B": 3, "C": 4, "N": 3, "O": 2, "P": 3, "S": 2,
	"F": 1, "Cl": 1, "Br": 1, "I": 1,
}

// Other returns the atom at the far end of bond b from atom i.
func (m *Mol) Other(b Bond, i int) int {
	if b.A == i {
		return b.B
	}
	return b.A
}

// Weight returns the molecular weight including implicit and explicit
// hydrogens.
func (m *Mol) Weight() float64 {
	w := 0.0
	for _, a := range m.Atoms {
		w += atomicWeights[a.Element]
		w += float64(a.HCount) * atomicWeights["H"]
	}
	return w
}

// Formula returns the Hill-order molecular formula (C first, H second,
// then other elements alphabetically).
func (m *Mol) Formula() string {
	counts := map[string]int{}
	for _, a := range m.Atoms {
		counts[a.Element]++
		counts["H"] += a.HCount
	}
	var b strings.Builder
	emit := func(el string) {
		n := counts[el]
		if n == 0 {
			return
		}
		b.WriteString(el)
		if n > 1 {
			fmt.Fprintf(&b, "%d", n)
		}
		delete(counts, el)
	}
	emit("C")
	emit("H")
	rest := make([]string, 0, len(counts))
	for el := range counts {
		rest = append(rest, el)
	}
	sort.Strings(rest)
	for _, el := range rest {
		emit(el)
	}
	return b.String()
}

// RingCount returns the cyclomatic number (bonds - atoms + components),
// the number of independent rings.
func (m *Mol) RingCount() int {
	if len(m.Atoms) == 0 {
		return 0
	}
	seen := make([]bool, len(m.Atoms))
	components := 0
	var stack []int
	for s := range m.Atoms {
		if seen[s] {
			continue
		}
		components++
		stack = append(stack[:0], s)
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, bi := range m.adj[v] {
				o := m.Other(m.Bonds[bi], v)
				if !seen[o] {
					seen[o] = true
					stack = append(stack, o)
				}
			}
		}
	}
	return len(m.Bonds) - len(m.Atoms) + components
}

// Validate checks graph invariants: bond endpoints in range, no
// self-bonds, no duplicate bonds, adjacency consistency.
func (m *Mol) Validate() error {
	type pair struct{ a, b int }
	seen := map[pair]bool{}
	for i, b := range m.Bonds {
		if b.A < 0 || b.A >= len(m.Atoms) || b.B < 0 || b.B >= len(m.Atoms) {
			return fmt.Errorf("chem: bond %d endpoints out of range", i)
		}
		if b.A == b.B {
			return fmt.Errorf("chem: bond %d is a self-loop on atom %d", i, b.A)
		}
		p := pair{b.A, b.B}
		if p.a > p.b {
			p.a, p.b = p.b, p.a
		}
		if seen[p] {
			return fmt.Errorf("chem: duplicate bond between %d and %d", p.a, p.b)
		}
		seen[p] = true
	}
	for i, a := range m.Atoms {
		if _, ok := atomicWeights[a.Element]; !ok {
			return fmt.Errorf("chem: atom %d has unsupported element %q", i, a.Element)
		}
		if a.HCount < 0 {
			return fmt.Errorf("chem: atom %d has negative hydrogen count", i)
		}
	}
	return nil
}
