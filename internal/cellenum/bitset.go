package cellenum

import "math/bits"

// Bitset is a fixed-capacity bit set over half-space indices within a leaf.
type Bitset []uint64

// NewBitset allocates a bitset able to hold n bits.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set sets bit i.
func (b Bitset) Set(i int) { b[i/64] |= 1 << uint(i%64) }

// Get reports bit i.
func (b Bitset) Get(i int) bool { return b[i/64]&(1<<uint(i%64)) != 0 }

// Count returns the number of set bits.
func (b Bitset) Count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// IntersectsAny reports whether b and o share any set bit.
func (b Bitset) IntersectsAny(o Bitset) bool {
	for i := range b {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// Clone copies the bitset.
func (b Bitset) Clone() Bitset {
	c := make(Bitset, len(b))
	copy(c, b)
	return c
}

// Equal reports bitwise equality.
func (b Bitset) Equal(o Bitset) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// hash mixes the bitset's words into a table index.
func (b Bitset) hash() uint64 {
	var h uint64
	for _, w := range b {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

// Key returns a compact string usable as a map key.
func (b Bitset) Key() string {
	buf := make([]byte, 0, len(b)*8)
	for _, w := range b {
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(w>>uint(s)))
		}
	}
	return string(buf)
}
