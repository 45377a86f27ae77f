// Package align implements pairwise protein sequence alignment
// (Needleman–Wunsch global, plus a banded global variant) and the
// evolutionary distance the phylogenetics layer consumes.
package align

import (
	"fmt"
	"math"
)

// Result describes a pairwise alignment.
type Result struct {
	// Score is the optimal alignment score under the scoring used.
	Score int
	// A and B are the aligned sequences with '-' gap characters; both
	// have equal length.
	A, B string
	// Identity is the fraction of aligned columns (gaps included in
	// the denominator) where the residues match exactly.
	Identity float64
}

func (r *Result) computeIdentity() {
	if len(r.A) == 0 {
		r.Identity = 0
		return
	}
	match := 0
	for i := 0; i < len(r.A); i++ {
		if r.A[i] == r.B[i] && r.A[i] != '-' {
			match++
		}
	}
	r.Identity = float64(match) / float64(len(r.A))
}

// move encodes a traceback direction.
type move uint8

const (
	moveNone move = iota
	moveDiag      // consume one residue from both
	moveUp        // gap in B (consume from A)
	moveLeft      // gap in A (consume from B)
)

// Global computes the optimal Needleman–Wunsch global alignment of a
// and b under s with linear gap penalties.
func Global(a, b string, s *Scoring) *Result {
	n, m := len(a), len(b)
	gap := s.GapPenalty

	// Score and traceback matrices, row-major (n+1)×(m+1).
	w := m + 1
	score := make([]int, (n+1)*w)
	trace := make([]move, (n+1)*w)
	for j := 1; j <= m; j++ {
		score[j] = -j * gap
		trace[j] = moveLeft
	}
	for i := 1; i <= n; i++ {
		score[i*w] = -i * gap
		trace[i*w] = moveUp
	}
	for i := 1; i <= n; i++ {
		rowPrev := (i - 1) * w
		row := i * w
		ca := a[i-1]
		for j := 1; j <= m; j++ {
			diag := score[rowPrev+j-1] + s.Score(ca, b[j-1])
			up := score[rowPrev+j] - gap
			left := score[row+j-1] - gap
			best, mv := diag, moveDiag
			if up > best {
				best, mv = up, moveUp
			}
			if left > best {
				best, mv = left, moveLeft
			}
			score[row+j] = best
			trace[row+j] = mv
		}
	}
	res := traceback(a, b, trace, w, n, m)
	res.Score = score[n*w+m]
	res.computeIdentity()
	return res
}

// GlobalBanded computes a global alignment restricted to a diagonal
// band of half-width k. It returns an error when the band cannot cover
// the length difference of the inputs. For sequences of similar length
// and divergence it matches Global at a fraction of the cost.
func GlobalBanded(a, b string, s *Scoring, k int) (*Result, error) {
	n, m := len(a), len(b)
	diff := n - m
	if diff < 0 {
		diff = -diff
	}
	if k < diff {
		return nil, fmt.Errorf("align: band %d narrower than length difference %d", k, diff)
	}
	gap := s.GapPenalty
	const minScore = -1 << 30
	w := m + 1
	// Full-size matrices but only band cells computed; memory is the
	// same as Global, time is O(n·k). (A compressed-band layout would
	// save memory but is not needed at our sequence lengths.)
	score := make([]int, (n+1)*w)
	trace := make([]move, (n+1)*w)
	for i := range score {
		score[i] = minScore
	}
	score[0] = 0
	for j := 1; j <= m && j <= k; j++ {
		score[j] = -j * gap
		trace[j] = moveLeft
	}
	for i := 1; i <= n && i <= k; i++ {
		score[i*w] = -i * gap
		trace[i*w] = moveUp
	}
	for i := 1; i <= n; i++ {
		lo := i - k
		if lo < 1 {
			lo = 1
		}
		hi := i + k
		if hi > m {
			hi = m
		}
		rowPrev := (i - 1) * w
		row := i * w
		ca := a[i-1]
		for j := lo; j <= hi; j++ {
			best, mv := minScore, moveNone
			if d := score[rowPrev+j-1]; d > minScore {
				if v := d + s.Score(ca, b[j-1]); v > best {
					best, mv = v, moveDiag
				}
			}
			if u := score[rowPrev+j]; u > minScore {
				if v := u - gap; v > best {
					best, mv = v, moveUp
				}
			}
			if l := score[row+j-1]; l > minScore {
				if v := l - gap; v > best {
					best, mv = v, moveLeft
				}
			}
			score[row+j] = best
			trace[row+j] = mv
		}
	}
	if score[n*w+m] == minScore {
		return nil, fmt.Errorf("align: band %d too narrow to reach the end", k)
	}
	res := traceback(a, b, trace, w, n, m)
	res.Score = score[n*w+m]
	res.computeIdentity()
	return res, nil
}

// traceback reconstructs the alignment from the trace matrix, walking
// from (i, j) back to the origin.
func traceback(a, b string, trace []move, w, i, j int) *Result {
	var ra, rb []byte
	for i > 0 || j > 0 {
		switch trace[i*w+j] {
		case moveDiag:
			ra = append(ra, a[i-1])
			rb = append(rb, b[j-1])
			i--
			j--
		case moveUp:
			ra = append(ra, a[i-1])
			rb = append(rb, '-')
			i--
		case moveLeft:
			ra = append(ra, '-')
			rb = append(rb, b[j-1])
			j--
		default:
			// Defensive: a malformed trace would loop forever.
			panic("align: traceback hit moveNone before the origin")
		}
	}
	reverse(ra)
	reverse(rb)
	return &Result{A: string(ra), B: string(rb)}
}

func reverse(b []byte) {
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
}

// DistanceBanded converts a banded global alignment into an
// evolutionary distance estimate in [0, ~3]: the Jukes–Cantor-style
// corrected p-distance d = -ln(1 - p·19/20)·(19/20) computed over
// aligned non-gap columns. Identical sequences give 0; p ≥ 0.95
// saturates to the cap. It falls back to the exact algorithm (Global)
// when the band fails.
func DistanceBanded(a, b string, s *Scoring, k int) float64 {
	res, err := GlobalBanded(a, b, s, k)
	if err != nil {
		res = Global(a, b, s)
	}
	return resultDistance(res)
}

const maxDistance = 3.0

func resultDistance(res *Result) float64 {
	cols, diff := 0, 0
	for i := 0; i < len(res.A); i++ {
		if res.A[i] == '-' || res.B[i] == '-' {
			continue
		}
		cols++
		if res.A[i] != res.B[i] {
			diff++
		}
	}
	if cols == 0 {
		return maxDistance
	}
	p := float64(diff) / float64(cols)
	const f = 19.0 / 20.0
	if p >= 0.95 {
		return maxDistance
	}
	d := -f * math.Log(1-p/f)
	if d > maxDistance {
		return maxDistance
	}
	if d < 0 {
		return 0
	}
	return d
}
