package cellenum

import (
	"math/bits"

	"repro/internal/geom"
	"repro/internal/vecmath"
)

// binaryConditions holds, as 2-clauses over the active bits, every joint
// pattern of two active half-spaces that is impossible within the leaf
// (paper Figure 4, generalised to all four pattern combinations).
type binaryConditions struct {
	conflict11 []Bitset // j in conflict11[i]: ¬xᵢ ∨ ¬xⱼ
	conflict00 []Bitset // j in conflict00[i]: xᵢ ∨ xⱼ
	requires1  []Bitset // j in requires1[i]: ¬xᵢ ∨ xⱼ
	requiredBy []Bitset // i in requiredBy[j] ⇔ j in requires1[i]
}

// resetConditions sizes the clause tables to m active half-spaces, with no
// clause: the tables a leaf below binaryConditionThreshold walks over.
func (e *Enumerator) resetConditions(m int) {
	c := &e.cond
	c.conflict11 = reuseBitsetTable(&c.conflict11, m, m)
	c.conflict00 = reuseBitsetTable(&c.conflict00, m, m)
	c.requires1 = reuseBitsetTable(&c.requires1, m, m)
	c.requiredBy = reuseBitsetTable(&c.requiredBy, m, m)
}

// buildBinaryConditions fills the clause tables by testing the four joint
// patterns of every pair of active half-spaces, and returns the LPs it ran.
// A pattern some kept sample or some feasible LP's witness exhibits is not
// tested: the witnesses of the classification LPs seed seen, and each pair
// LP that comes out feasible certifies the pairs after it.
func (e *Enumerator) buildBinaryConditions(partial []geom.Halfspace) int {
	m := len(e.active)
	c := &e.cond
	// memberOf[i] holds, as a bitset over kept samples, which samples fall
	// inside half-space i; pairwise combo coverage then reduces to
	// word-level intersections instead of per-pair bit probes.
	nS := len(e.patterns)
	memberOf := reuseBitsetTable(&e.memberOf, m, nS)
	for s, pat := range e.patterns {
		for i := 0; i < m; i++ {
			if pat.Get(i) {
				memberOf[i].Set(s)
			}
		}
	}
	notMemberOf := reuseBitsetTable(&e.notMemberOf, m, nS)
	for i := 0; i < m; i++ {
		nm := notMemberOf[i]
		for w := range nm {
			nm[w] = ^memberOf[i][w]
		}
		// Mask the tail beyond nS bits.
		if rem := nS % 64; rem != 0 && len(nm) > 0 {
			nm[len(nm)-1] &= (1 << uint(rem)) - 1
		}
	}
	sampled := [2][]Bitset{notMemberOf, memberOf}

	e.seen = grow(e.seen, m*m)
	clear(e.seen)
	for _, w := range e.wits {
		e.certify(w, partial, 0)
	}
	lps := 0
	for i := 0; i < m; i++ {
		oi := e.active[i]
		hs := [2]geom.Halfspace{e.compl[oi], partial[oi]}
		for j := i + 1; j < m; j++ {
			oj := e.active[j]
			hj := [2]geom.Halfspace{e.compl[oj], partial[oj]}
			// combo = 2·xᵢ + xⱼ, tested in the order 11, 10, 01, 00.
			for combo := 3; combo >= 0; combo-- {
				bi, bj := combo>>1, combo&1
				if e.seen[i*m+j]&(1<<combo) != 0 || sampled[bi][i].IntersectsAny(sampled[bj][j]) {
					continue
				}
				e.probe = append(append(e.probe[:0], e.fixed...), hs[bi], hj[bj])
				lps++
				if w, _, ok := e.feas.FeasibleInterior(e.probe); ok {
					e.certify(w, partial, i)
					continue
				}
				switch combo {
				case 3:
					c.conflict11[i].Set(j)
					c.conflict11[j].Set(i)
				case 2:
					c.requires1[i].Set(j)
					c.requiredBy[j].Set(i)
				case 1:
					c.requires1[j].Set(i)
					c.requiredBy[i].Set(j)
				case 0:
					c.conflict00[i].Set(j)
					c.conflict00[j].Set(i)
				}
			}
		}
	}
	return lps
}

// certify records in seen the joint pattern p exhibits for every pair of
// active half-spaces, from active index from on, that p clears both of. A
// p that does not clear the fixed rows certifies nothing.
func (e *Enumerator) certify(p vecmath.Point, partial []geom.Halfspace, from int) {
	if !e.clearsFixed(p) {
		return
	}
	m := len(e.active)
	clr := e.clr[:0] // 2·(active index) + bit, for each half-space p clears
	for ai := from; ai < m; ai++ {
		oi := e.active[ai]
		switch side(partial[oi], e.norms[oi], p) {
		case 1:
			clr = append(clr, 2*ai+1)
		case -1:
			clr = append(clr, 2*ai)
		}
	}
	for x, a := range clr {
		row := e.seen[(a>>1)*m:]
		for _, b := range clr[x+1:] {
			row[b>>1] |= 1 << ((a&1)<<1 | b&1)
		}
	}
	e.clr = clr
}

// walker is the state of the walk over the bit-strings of one weight that
// satisfy every clause in the enumerator's tables. Depth d decides bit d;
// rows d of f1 and f0 hold the bits forced to 1 and to 0 once bits 0..d-1
// are decided (decided bits included).
type walker struct {
	m, w, words int
	f1, f0      []uint64 // m+1 rows of words each
	try         []int8   // per depth, the value to try next: 1, 0, then -1
	d           int
}

func (k *walker) row(f []uint64, d int) Bitset { return f[d*k.words : (d+1)*k.words] }

// startWalk starts the walk over the weight-w strings of m bits.
func (e *Enumerator) startWalk(m, w int) {
	k := &e.walk
	k.m, k.w, k.words = m, w, (m+63)/64
	k.f1 = grow(k.f1, (m+1)*k.words)
	k.f0 = grow(k.f0, (m+1)*k.words)
	clear(k.row(k.f1, 0))
	clear(k.row(k.f0, 0))
	k.try = grow(k.try, m+1)
	k.try[0] = 1
	k.d = 0
	if w > m {
		k.d = -1
	}
}

// nextString returns the walk's next bit-string, in lexicographic order of
// the set bits' indices; the string is valid until the next call. Deciding
// bit d ORs into the forced sets the bits its clauses imply: xd = 1 forces
// requires1[d] to 1 and conflict11[d] to 0, xd = 0 forces conflict00[d] to
// 1 and requiredBy[d] to 0. A branch dies as soon as the forced sets
// intersect, more than w bits are forced to 1, or fewer than w are left
// not forced to 0. A string that reaches depth m therefore satisfies every
// clause, and each one that does is reached.
func (e *Enumerator) nextString() (Bitset, bool) {
	k := &e.walk
	c := &e.cond
	for k.d >= 0 {
		d := k.d
		if d == k.m {
			k.d--
			return k.row(k.f1, d), true
		}
		v := k.try[d]
		k.try[d]--
		if v < 0 {
			k.d--
			continue
		}
		a1, a0 := c.conflict00[d], c.requiredBy[d]
		if v == 1 {
			a1, a0 = c.requires1[d], c.conflict11[d]
		}
		p1, p0 := k.row(k.f1, d), k.row(k.f0, d)
		c1, c0 := k.row(k.f1, d+1), k.row(k.f0, d+1)
		for x := range c1 {
			c1[x], c0[x] = p1[x]|a1[x], p0[x]|a0[x]
		}
		if v == 1 {
			c1.Set(d)
		} else {
			c0.Set(d)
		}
		n1, n0 := 0, 0
		for x := range c1 {
			if c1[x]&c0[x] != 0 {
				n1 = k.w + 1
				break
			}
			n1 += bits.OnesCount64(c1[x])
			n0 += bits.OnesCount64(c0[x])
		}
		if n1 <= k.w && k.m-n0 >= k.w {
			k.d++
			k.try[k.d] = 1
		}
	}
	return nil, false
}
