package wrsn

import "math/bits"

// bitset is a dense bit vector over node indices, sized once at network
// construction. The alive, low, connected and failed sets live here instead of in
// per-node structs: a 100k-node membership scan touches ~1.5 KB of
// contiguous words instead of 100k scattered struct fields, and set
// differences (the incremental router's dirty detection) become word-wise
// AND-NOTs.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }

func (b bitset) reset() {
	for i := range b {
		b[i] = 0
	}
}

func (b bitset) copyFrom(src bitset) { copy(b, src) }

// count returns the number of set bits.
func (b bitset) count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// appendAndNot appends to dst the indices present in b but not in other
// (b &^ other), ascending. Words are scanned via trailing-zero counts, so
// the cost is proportional to the word count plus the population of the
// difference.
func (b bitset) appendAndNot(dst []int32, other bitset) []int32 {
	for w, word := range b {
		diff := word &^ other[w]
		base := int32(w << 6)
		for diff != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(diff)))
			diff &= diff - 1
		}
	}
	return dst
}
