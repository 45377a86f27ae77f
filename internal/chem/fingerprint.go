package chem

import (
	"fmt"
	"math/bits"
)

// FingerprintBits is the fixed width of ligand fingerprints. 1024 bits
// matches the classic Daylight-style path fingerprint size.
const FingerprintBits = 1024

// Fingerprint is a fixed-width bitset summarizing a molecule's linear
// paths. Similar molecules share many set bits, so Tanimoto similarity
// over fingerprints approximates structural similarity cheaply.
type Fingerprint [FingerprintBits / 64]uint64

// setBit sets bit i (mod width).
func (f *Fingerprint) setBit(h uint64) {
	i := h % FingerprintBits
	f[i/64] |= 1 << (i % 64)
}

// PopCount returns the number of set bits.
func (f *Fingerprint) PopCount() int {
	n := 0
	for _, w := range f {
		n += bits.OnesCount64(w)
	}
	return n
}

// Tanimoto returns |A∧B| / |A∨B| in [0,1]; two empty fingerprints
// score 1 (identical).
func (f *Fingerprint) Tanimoto(g *Fingerprint) float64 {
	var inter, union int
	for i := range f {
		inter += bits.OnesCount64(f[i] & g[i])
		union += bits.OnesCount64(f[i] | g[i])
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// maxPathLen is the maximum path length (in atoms) enumerated by the
// fingerprint, matching the common 7-atom Daylight default.
const maxPathLen = 7

// maxPaths bounds the paths ComputeFingerprint enumerates. Their number
// grows exponentially with how densely the atoms bond — a 13-atom
// clique has over 10 million — and SMILES arrives from outside the
// program, so a molecule past the budget is refused rather than walked.
// It is 17 times the most any ligand of dataset D1 has (465).
const maxPaths = 1 << 13

// ComputeFingerprint enumerates all simple paths of up to maxPathLen
// atoms, hashes each path's element/bond string, and folds the hashes
// into the fixed-width bitset. A molecule with more than maxPaths such
// paths is an error.
func (m *Mol) ComputeFingerprint() (*Fingerprint, error) {
	fp := &Fingerprint{}
	if len(m.Atoms) == 0 {
		return fp, nil
	}
	visited := make([]bool, len(m.Atoms))
	paths := 0
	var walk func(atom int, h uint64, depth int)
	walk = func(atom int, h uint64, depth int) {
		if paths++; paths > maxPaths {
			return // past the budget every call returns here, so the walk unwinds
		}
		h = fnvMix(h, atomCode(&m.Atoms[atom]))
		fp.setBit(h)
		if depth >= maxPathLen {
			return
		}
		visited[atom] = true
		for _, bi := range m.adj[atom] {
			b := m.Bonds[bi]
			next := m.Other(b, atom)
			if visited[next] {
				continue
			}
			walk(next, fnvMix(h, uint64(b.Order)), depth+1)
		}
		visited[atom] = false
	}
	for a := range m.Atoms {
		walk(a, fnvOffset, 1)
	}
	if paths > maxPaths {
		return nil, fmt.Errorf("chem: molecule has more than %d paths of up to %d atoms", maxPaths, maxPathLen)
	}
	return fp, nil
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	h ^= v
	h *= fnvPrime
	return h
}

// atomCode packs an atom's identity into a hashable code.
func atomCode(a *Atom) uint64 {
	code := uint64(0)
	for i := 0; i < len(a.Element); i++ {
		code = code<<8 | uint64(a.Element[i])
	}
	if a.Aromatic {
		code |= 1 << 40
	}
	code ^= uint64(int64(a.Charge)+8) << 44
	return code
}
