package mint

import "math/bits"

// liveHash is the live stream's fingerprint: a polynomial hash of the live
// edge sequence e_0 … e_{n−1} in graph order,
//
//	h = Σ v(e_i)·B^(n−1−i)  mod p,  p = 2^61 − 1,
//
// where v mixes an edge's source, destination and time into [0, p).
// Appending an edge is one multiply-add (h·B + v), and evicting the
// oldest edge subtracts v(e_0)·B^(n−1), so the hash follows the sliding
// window in O(batch + evicted) per append instead of a rehash of every
// live edge. pow tracks B^n for that subtraction. The empty sequence is
// liveHash{pow: 1}.
type liveHash struct {
	h, pow uint64
}

const (
	hashMod  = 1<<61 - 1
	hashBase = 0x1d8e4e27c47d124f // any base in (1, p) works; fixed for the format
)

// hashBaseInv is B^(p−2) = B^−1 mod p (Fermat), the step pop divides by.
var hashBaseInv = powMod(hashBase, hashMod-2)

func (x *liveHash) push(e Edge) {
	x.h = addMod(mulMod(x.h, hashBase), edgeHash(e))
	x.pow = mulMod(x.pow, hashBase)
}

// pop removes the oldest edge of the sequence, which must be e.
func (x *liveHash) pop(e Edge) {
	x.pow = mulMod(x.pow, hashBaseInv)
	x.h = addMod(x.h, hashMod-mulMod(edgeHash(e), x.pow))
}

// reset rehashes edges from scratch.
func (x *liveHash) reset(edges []Edge) {
	*x = liveHash{pow: 1}
	for _, e := range edges {
		x.push(e)
	}
}

// edgeHash maps an edge into [0, p) with two splitmix64 finalizer rounds.
func edgeHash(e Edge) uint64 {
	v := mix64(uint64(uint32(e.Src))<<32 | uint64(uint32(e.Dst)))
	v = mix64(v ^ uint64(e.Time))
	return reduce(v)
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// reduce maps any uint64 into [0, p): 2^61 ≡ 1 (mod p).
func reduce(x uint64) uint64 {
	x = x&hashMod + x>>61
	if x >= hashMod {
		x -= hashMod
	}
	return x
}

func addMod(a, b uint64) uint64 { return reduce(a + b) }

// mulMod multiplies a, b < p modulo p: the 122-bit product splits into
// its low 61 bits and the rest, which add up to the residue.
func mulMod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return reduce(lo&hashMod + (lo>>61 | hi<<3))
}

func powMod(b, e uint64) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = mulMod(r, b)
		}
		b = mulMod(b, b)
	}
	return r
}
