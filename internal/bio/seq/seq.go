// Package seq provides protein sequence types, validation, and k-mer
// profiles used by the alignment and phylogenetics layers.
package seq

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// AminoAcids is the canonical ordering of the 20 standard amino acid
// one-letter codes. Index positions in this string are used as compact
// residue codes throughout the bio packages.
const AminoAcids = "ARNDCQEGHILKMFPSTWYV"

// residueIndex maps an amino-acid letter to its position in
// AminoAcids, or -1 for anything else.
var residueIndex [256]int8

func init() {
	for i := range residueIndex {
		residueIndex[i] = -1
	}
	for i := 0; i < len(AminoAcids); i++ {
		c := AminoAcids[i]
		residueIndex[c] = int8(i)
		residueIndex[c+'a'-'A'] = int8(i)
	}
}

// ResidueIndex returns the compact code (0..19) of an amino-acid
// letter, or -1 if the byte is not a standard residue.
func ResidueIndex(c byte) int { return int(residueIndex[c]) }

// IsResidue reports whether c is one of the 20 standard amino-acid
// letters (either case).
func IsResidue(c byte) bool { return residueIndex[c] >= 0 }

// Protein is a named protein sequence with optional metadata carried
// from its source record.
type Protein struct {
	// ID is the accession (unique within a dataset).
	ID string
	// Name is a human-readable description.
	Name string
	// Family is the (possibly unknown) family label; synthetic data
	// sets the true generating family here so experiments can score
	// clustering quality.
	Family string
	// Residues is the validated upper-case sequence.
	Residues string
}

// Len returns the number of residues.
func (p *Protein) Len() int { return len(p.Residues) }

// Validate checks that the sequence is non-empty and contains only
// standard residues. 'X' (unknown) is rejected: callers should clean
// sequences before building trees from them.
func (p *Protein) Validate() error {
	if p.ID == "" {
		return fmt.Errorf("seq: protein has empty ID")
	}
	if len(p.Residues) == 0 {
		return fmt.Errorf("seq: protein %q has empty sequence", p.ID)
	}
	for i := 0; i < len(p.Residues); i++ {
		if !IsResidue(p.Residues[i]) {
			return fmt.Errorf("seq: protein %q has invalid residue %q at position %d",
				p.ID, p.Residues[i], i)
		}
	}
	return nil
}

// Normalize upper-cases the sequence in place and returns an error if
// any residue is invalid afterwards.
func (p *Protein) Normalize() error {
	p.Residues = strings.ToUpper(p.Residues)
	return p.Validate()
}

// KmerProfile is a sparse count vector of k-mers, keyed by the packed
// base-20 encoding of the k residues. It supports the alignment-free
// distance used for large trees. The vector is held as sorted parallel
// arrays, not a map, so that distances are merges and indexed loads:
// Codes are the distinct k-mer codes in ascending order, Counts[i] is
// how often Codes[i] occurs, and Norm is the vector's Euclidean length
// √(Σ Counts[i]²), computed once.
type KmerProfile struct {
	K      int
	Codes  []uint64
	Counts []uint32
	Total  int
	Norm   float64
}

// NewKmerProfile computes the k-mer profile of a sequence. k must be
// in [1, 12] so that the packed code fits in a uint64 (20^12 < 2^63).
// Residues outside the 20 standard letters break runs: no k-mer spans
// them.
func NewKmerProfile(residues string, k int) (*KmerProfile, error) {
	if k < 1 || k > 12 {
		return nil, fmt.Errorf("seq: k=%d out of range [1,12]", k)
	}
	p := &KmerProfile{K: k}
	if len(residues) < k {
		return p, nil
	}
	// Rolling base-20 encoding of every k-mer, in sequence order.
	codes := make([]uint64, 0, len(residues)-k+1)
	var code uint64
	var pow uint64 = 1
	for i := 1; i < k; i++ {
		pow *= 20
	}
	valid := 0 // length of current run of valid residues
	for i := 0; i < len(residues); i++ {
		r := ResidueIndex(residues[i])
		if r < 0 {
			valid = 0
			code = 0
			continue
		}
		if valid < k {
			code = code*20 + uint64(r)
			valid++
		} else {
			code = (code%(pow))*20 + uint64(r)
		}
		if valid >= k {
			codes = append(codes, code)
		}
	}
	p.Total = len(codes)
	if p.Total == 0 {
		return p, nil
	}
	// Sort, then run-length count in place: codes[:d] ends up holding
	// the d distinct codes.
	slices.Sort(codes)
	p.Counts = make([]uint32, 0, len(codes))
	d := 0
	for i, c := range codes {
		if i > 0 && c == codes[d-1] {
			p.Counts[d-1]++
			continue
		}
		codes[d] = c
		p.Counts = append(p.Counts, 1)
		d++
	}
	p.Codes = codes[:d:d]
	p.Counts = p.Counts[:d:d]
	var sumSq uint64
	for _, c := range p.Counts {
		sumSq += uint64(c) * uint64(c)
	}
	p.Norm = math.Sqrt(float64(sumSq))
	return p, nil
}

// Cosine returns 1 - cosine-similarity between two profiles, a
// distance in [0,1]. Profiles with different K, and empty profiles,
// are maximally distant. It is a sorted merge of the two code lists;
// CosineRows is the form for a whole distance matrix.
func (p *KmerProfile) Cosine(q *KmerProfile) float64 {
	if p.K != q.K || p.Total == 0 || q.Total == 0 {
		return 1
	}
	var dot uint64
	for i, j := 0, 0; i < len(p.Codes) && j < len(q.Codes); {
		switch a, b := p.Codes[i], q.Codes[j]; {
		case a < b:
			i++
		case a > b:
			j++
		default:
			dot += uint64(p.Counts[i]) * uint64(q.Counts[j])
			i++
			j++
		}
	}
	return cosineDistance(dot, p.Norm, q.Norm)
}

// cosineDistance is 1 - dot/(np·nq), the similarity clamped at 1. The
// dot product and both squared norms are exact integers, so the result
// does not depend on the order the k-mers were summed in.
func cosineDistance(dot uint64, np, nq float64) float64 {
	sim := float64(dot) / (np * nq)
	if sim > 1 {
		sim = 1
	}
	return 1 - sim
}

// CosineRows is the k-mer distance-matrix kernel: it returns a row
// factory for phylo.ComputeDistances whose rows hold Cosine between
// profiles[i] and each of profiles[0..i-1], bit for bit.
//
// Every distinct code of the whole profile set gets its rank in the
// set's sorted vocabulary, so one dense vector indexed by rank covers
// any k (20^12 codes could not be indexed directly). Each filler the
// factory returns owns one such vector: it scatters row i's counts into
// it once, and each pair then costs |profiles[j]| indexed loads and
// multiply-adds, with no search and no branch per k-mer. Fillers share
// only read-only state, so one per worker may run concurrently.
func CosineRows(profiles []*KmerProfile) func() func(i int, row []float64) {
	n := 0
	for _, p := range profiles {
		n += len(p.Codes)
	}
	vocab := make([]uint64, 0, n)
	for _, p := range profiles {
		vocab = append(vocab, p.Codes...)
	}
	slices.Sort(vocab)
	vocab = slices.Compact(vocab)
	// ranks[i][x] is the vocabulary rank of profiles[i].Codes[x]; the
	// per-profile slices share one backing array.
	flat := make([]uint32, n)
	ranks := make([][]uint32, len(profiles))
	for i, p := range profiles {
		r := flat[:len(p.Codes):len(p.Codes)]
		flat = flat[len(p.Codes):]
		for x, c := range p.Codes {
			pos, _ := slices.BinarySearch(vocab, c)
			r[x] = uint32(pos)
		}
		ranks[i] = r
	}
	return func() func(i int, row []float64) {
		dense := make([]uint32, len(vocab))
		return func(i int, row []float64) {
			pi := profiles[i]
			for x, r := range ranks[i] {
				dense[r] = pi.Counts[x]
			}
			for j := range row {
				pj := profiles[j]
				if pi.K != pj.K || pi.Total == 0 || pj.Total == 0 {
					row[j] = 1
					continue
				}
				var dot uint64
				rj := ranks[j]
				cj := pj.Counts[:len(rj)]
				for x, r := range rj {
					dot += uint64(dense[r]) * uint64(cj[x])
				}
				row[j] = cosineDistance(dot, pi.Norm, pj.Norm)
			}
			for _, r := range ranks[i] {
				dense[r] = 0
			}
		}
	}
}
