package core

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// fixedPoint returns f × 2^1074 as an exact integer: every finite
// float64 is an integer multiple of 2^-1074. Summing these in one
// big.Int is the superaccumulator exactSum replaced on the write path;
// oracleSum keeps it as the reference exactSum must match bit for bit.
func fixedPoint(f float64) *big.Int {
	bf := new(big.Float).SetFloat64(f)
	bf.SetMantExp(bf, 1074)
	i, _ := bf.Int(nil)
	return i
}

// oracleSum is the reference value of an exactSum holding vals: the
// non-finite rule (NaN for any NaN or both infinities, else the one
// infinity present), otherwise the fixed-point total rounded once.
func oracleSum(vals []float64) float64 {
	var acc big.Int
	var nan, posInf, negInf bool
	for _, f := range vals {
		switch {
		case math.IsNaN(f):
			nan = true
		case math.IsInf(f, 1):
			posInf = true
		case math.IsInf(f, -1):
			negInf = true
		default:
			acc.Add(&acc, fixedPoint(f))
		}
	}
	switch {
	case nan || posInf && negInf:
		return math.NaN()
	case posInf:
		return math.Inf(1)
	case negInf:
		return math.Inf(-1)
	}
	prec := uint(acc.BitLen()) + 1
	if prec < 64 {
		prec = 64
	}
	bf := new(big.Float).SetPrec(prec).SetInt(&acc)
	bf.SetMantExp(bf, -1074)
	f, _ := bf.Float64()
	return f
}

// sameSum reports whether two sums agree: the same bits, or both NaN.
func sameSum(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// randomAddend draws from the value classes exact summation must get
// right: D1's affinity range, subnormals, the extremes, signed zeros,
// arbitrary finite bit patterns, and values a few binades apart.
func randomAddend(rng *rand.Rand) float64 {
	sign := 1.0
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch rng.Intn(7) {
	case 0, 1:
		return 4 + rng.Float64()*6 + rng.NormFloat64()*0.3
	case 2:
		return sign * math.Float64frombits(rng.Uint64()&(1<<52-1))
	case 3:
		return sign * []float64{math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022, 0}[rng.Intn(4)]
	case 4:
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	case 5:
		return sign * math.Ldexp(1+rng.Float64(), rng.Intn(120)-60)
	default:
		return sign * (1 + float64(rng.Intn(1<<20))*0x1p-52)
	}
}

// TestExactSumMatchesOracle holds exactSum to the big.Int
// superaccumulator bit for bit over seeded random multisets of finite
// values, built by interleaved adds and removes in shuffled orders:
// noise values are added and later removed, so only the kept multiset
// may show in the result.
func TestExactSumMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	type op struct {
		f      float64
		remove bool
	}
	for trial := 0; trial < 3000; trial++ {
		kept := make([]float64, rng.Intn(40))
		for i := range kept {
			kept[i] = randomAddend(rng)
		}
		ops := make([]op, 0, 3*len(kept))
		for _, f := range kept {
			ops = append(ops, op{f: f})
		}
		for n := rng.Intn(20); n > 0; n-- {
			f := randomAddend(rng)
			ops = append(ops, op{f: f}, op{f: f, remove: true})
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		// A noise value's add precedes its remove.
		for i := range ops {
			if !ops[i].remove {
				continue
			}
			for j := len(ops) - 1; j > i; j-- {
				if !ops[j].remove && math.Float64bits(ops[j].f) == math.Float64bits(ops[i].f) {
					ops[i], ops[j] = ops[j], ops[i]
					break
				}
			}
		}
		var s exactSum
		for _, o := range ops {
			s.add(addendOf(o.f), o.remove)
		}
		if got, want := s.Float64(), oracleSum(kept); !sameSum(got, want) {
			t.Fatalf("trial %d: exactSum %x (%g), oracle %x (%g) over %v", trial,
				math.Float64bits(got), got, math.Float64bits(want), want, kept)
		}
		for _, f := range kept {
			s.add(addendOf(f), true)
		}
		if len(s.b) != 0 || math.Float64bits(s.Float64()) != 0 {
			t.Fatalf("trial %d: removing every addend left %+v", trial, s.b)
		}
	}
}

// FuzzExactSum decodes the input into 9-byte operations — a control
// byte and a little-endian float64 — each adding its value or, when the
// control byte is odd, removing a value still held (chosen by the
// control byte's other bits). The sum must equal the oracle over what
// is held, a non-finite result must be what IEEE summation of the held
// non-finite values gives, and removing everything must leave the empty
// sum.
func FuzzExactSum(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s exactSum
		var held []float64
		for ; len(data) >= 9; data = data[9:] {
			ctl, v := data[0], math.Float64frombits(binary.LittleEndian.Uint64(data[1:9]))
			if ctl&1 == 1 && len(held) > 0 {
				i := int(ctl>>1) % len(held)
				s.add(addendOf(held[i]), true)
				held = append(held[:i], held[i+1:]...)
				continue
			}
			s.add(addendOf(v), false)
			held = append(held, v)
		}
		got := s.Float64()
		if want := oracleSum(held); !sameSum(got, want) {
			t.Fatalf("sum %x (%g), oracle %x (%g) over %v", math.Float64bits(got), got, math.Float64bits(want), want, held)
		}
		nonFinite, ieee := false, 0.0
		for _, v := range held {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				nonFinite, ieee = true, ieee+v
			}
		}
		if nonFinite && !sameSum(got, ieee) {
			t.Fatalf("sum %g over non-finite addends, IEEE summation gives %g: %v", got, ieee, held)
		}
		for _, v := range held {
			s.add(addendOf(v), true)
		}
		if len(s.b) != 0 || math.Float64bits(s.Float64()) != 0 {
			t.Fatalf("removing every addend left %+v", s.b)
		}
	})
}
