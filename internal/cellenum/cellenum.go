// Package cellenum implements the within-leaf processing module of Section
// 5.2 of the MaxRank paper: enumerate the arrangement cells inside one
// quad-tree leaf in increasing p-order (the Hamming weight of a cell's
// bit-string), skip the bit-strings that break a pairwise binary condition
// (the paper's Figure 4), and test the rest for non-zero extent by
// half-space intersection (LP).
//
// As implemented, one leaf goes through four steps, each as cheap as the
// points already in hand allow:
//
//   - Classification. Random interior samples of box ∩ simplex are drawn
//     first. A half-space some sample clears from the inside cannot miss the
//     leaf, and one some sample clears from the outside cannot cover it; the
//     LP runs only for what no sample settles. Forced half-spaces (those
//     covering box ∩ simplex) join every cell, dead ones (missing it) none;
//     only the active rest is searched.
//   - Pair conditions. For each pair of active half-spaces the four joint
//     patterns are tested by LP, except those a point the leaf already holds
//     exhibits: a sample, or the witness of any classification or pair LP
//     that came out feasible.
//   - The walk. The infeasible patterns are 2-clauses over the bits —
//     ¬xᵢ∨¬xⱼ, xᵢ∨xⱼ and ¬xᵢ∨xⱼ. Per weight, a walk decides the bits in
//     index order, 1 before 0, propagating the bits each decision implies,
//     and emits exactly the bit-strings that satisfy every clause, in
//     lexicographic order.
//   - Cells. An emitted bit-string a sample exhibits is a cell with that
//     sample as witness; any other gets the cell LP, whose witness is kept.
//
// "Clears" means a normalised distance above geom.InteriorTol from the
// half-space's boundary and from every fixed row (the box faces and the
// simplex): such a point is feasible for the margin LP with a margin above
// InteriorTol, so the LP would have said yes.
package cellenum

import (
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/vecmath"
)

// Cell is a non-empty arrangement cell found inside a leaf.
type Cell struct {
	// In lists the indices (into the leaf's partial set) of half-spaces
	// containing the cell, including forced ones; its length is the cell's
	// p-order.
	In []int
	// Witness is a point strictly inside the cell.
	Witness vecmath.Point
	// Margin is the interior margin achieved at Witness (0 when the witness
	// came from sampling rather than the margin LP).
	Margin float64
}

// POrder returns the cell's p-order.
func (c *Cell) POrder() int { return len(c.In) }

// Config tunes the enumeration.
type Config struct {
	// MaxWeight is a hard cap on the p-order of returned cells. Negative
	// means "no cap". NOTE: the zero value is a real cap ("weight-0 cells
	// only"); callers that want everything must pass -1.
	MaxWeight int
	// Extra enumerates this many Hamming weights beyond the first weight
	// with a non-empty cell (τ for iMaxRank; 0 reproduces plain MaxRank).
	Extra int
	// CandidateLimit aborts pathological leaves: when more bit-strings than
	// this satisfy every pair condition — the ones that reach the sample
	// lookup or a cell LP — enumeration stops and Result.Truncated is set.
	// Before each weight, a C(m, w) above the limit's remainder truncates
	// too, which bounds the walk itself. Zero means DefaultCandidateLimit.
	CandidateLimit int
	// Samples is the number of random interior points used to pre-classify
	// cells and pairwise conditions without LPs (0 = DefaultSamples).
	Samples int
	// Seed makes sampling deterministic (useful in tests).
	Seed int64
}

// DefaultCandidateLimit bounds surviving candidates per leaf.
const DefaultCandidateLimit = 1 << 21

// DefaultSamples is the default random-sample count per leaf.
const DefaultSamples = 48

// binaryConditionThreshold is the minimum active |Pl| at which computing
// the pairwise binary-condition table is worthwhile.
const binaryConditionThreshold = 8

// Result is the outcome of within-leaf processing.
type Result struct {
	Cells []Cell
	// MinWeight is the smallest p-order (counting forced half-spaces) with
	// a non-empty cell, or -1 if none was found under the configured caps.
	MinWeight int
	// Forced lists partial half-spaces that contain the leaf's entire
	// domain-restricted extent (box ∩ simplex): they behave like additional
	// |Fl| members and are included in every cell's In set.
	Forced []int
	// CompleteUpTo is the highest weight (counting forced) through which
	// enumeration ran exhaustively; results are complete for any bound at
	// or below it.
	CompleteUpTo int
	// MaxPossibleWeight is the largest weight any cell in this leaf can
	// have (|Forced| + active half-spaces); CompleteUpTo >= MaxPossibleWeight
	// means the leaf was enumerated exhaustively.
	MaxPossibleWeight int
	// LPCalls counts feasibility tests.
	LPCalls int
	// SampleHits counts cells certified non-empty by sampling alone.
	SampleHits int
	// Truncated indicates the candidate limit was hit; results may be
	// incomplete (callers must treat this leaf conservatively).
	Truncated bool
}

// Enumerator owns the scratch of within-leaf enumeration — the pooled LP
// solver, constraint buffers, sample points, bit patterns, the pairwise
// condition tables and the walk's state — and recycles all of it across
// Enumerate calls. One query worker holds one Enumerator, so a leaf
// allocates nothing beyond the cells it returns and its Forced list (which
// escape into Results).
//
// The zero value is ready to use. An Enumerator is not safe for concurrent
// use; give each worker its own.
type Enumerator struct {
	feas geom.Feasibility

	// Constraint scratch. fixed holds the leaf box + simplex rows over
	// normals owned by fixedA; compl holds per-partial complements over
	// normals owned by complA; probe and cons are assembly buffers.
	fixed  []geom.Halfspace
	fixedA []vecmath.Point
	compl  []geom.Halfspace
	complA []vecmath.Point
	norms  []float64 // ‖A‖ of each partial half-space
	probe  []geom.Halfspace
	cons   []geom.Halfspace

	anchor vecmath.Point
	tmp    vecmath.Point

	rng *rand.Rand // re-seeded per leaf: a fresh source is 4.9 KB

	samples []vecmath.Point
	// inside / outside mark the partial half-spaces some sample clears
	// from the inside / the outside.
	inside  Bitset
	outside Bitset
	active  []int
	// wits holds the witnesses of the classification LPs that ran.
	wits []vecmath.Point

	// patterns holds the bit pattern, over the active set, of each sample
	// no active hyperplane passes through, and keptFrom that sample's
	// index. known is an open-addressed index from each distinct pattern
	// to its first occurrence (-1: empty slot).
	patterns []Bitset
	keptFrom []int
	known    []int32

	// Pairwise binary-condition tables, and what the pair pass needs:
	// memberOf[i] / notMemberOf[i] are the kept samples inside / outside
	// active half-space i, seen[i*m+j] (i < j) the joint patterns of (i, j)
	// an LP witness exhibits, and clr is certify's scratch.
	cond        binaryConditions
	memberOf    []Bitset
	notMemberOf []Bitset
	seen        []uint8
	clr         []int

	walk walker
}

// Enumerate is the allocation-per-call convenience wrapper around a
// throwaway Enumerator; hot loops should hold an Enumerator.
func Enumerate(box geom.Rect, partial []geom.Halfspace, cfg Config) Result {
	var e Enumerator
	return e.Enumerate(box, partial, cfg)
}

// Reset drops the references the scratch holds into caller-owned geometry
// (the partial half-spaces of the last processed leaf), so a pooled
// Enumerator does not pin a finished query's arrangement. The numeric
// arenas — LP tableaus, bitsets, sample points — are kept; they are the
// point of pooling.
func (e *Enumerator) Reset() {
	clearHS(e.probe)
	e.probe = e.probe[:0]
	clearHS(e.cons)
	e.cons = e.cons[:0]
	// compl normals are owned by complA, but the Halfspace values still
	// mirror caller B values only — nothing external; keep them.
}

func clearHS(hs []geom.Halfspace) {
	hs = hs[:cap(hs)]
	for i := range hs {
		hs[i] = geom.Halfspace{}
	}
}

// grow returns s resized to n elements. Elements past len(s) but within its
// capacity are kept, so the buffers that recycled rows own survive a
// smaller leaf followed by a larger one.
func grow[T any](s []T, n int) []T {
	if n > cap(s) {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// reusePoint resizes *p to dr coordinates, reusing its capacity, and zeroes
// it.
func reusePoint(p *vecmath.Point, dr int) vecmath.Point {
	*p = grow(*p, dr)
	clear(*p)
	return *p
}

// reuseBitset resizes *b to hold n bits, reusing its capacity, and zeroes
// it.
func reuseBitset(b *Bitset, n int) Bitset {
	*b = grow(*b, (n+63)/64)
	clear(*b)
	return *b
}

// reuseBitsetTable resizes a table to m zeroed bitsets of n bits each,
// recycling rows.
func reuseBitsetTable(tbl *[]Bitset, m, n int) []Bitset {
	*tbl = grow(*tbl, m)
	for i := range *tbl {
		reuseBitset(&(*tbl)[i], n)
	}
	return *tbl
}

// buildFixed assembles the leaf's fixed constraints — the box faces plus
// the domain simplex boundary Σ q_i <= 1 — into the reusable fixed buffer
// (axis bounds q_i > 0 are implied by box ⊆ [0,1]^dr).
func (e *Enumerator) buildFixed(box geom.Rect) {
	dr := box.Dim()
	e.fixedA = grow(e.fixedA, 2*dr+1)
	e.fixed = e.fixed[:0]
	for i := 0; i < dr; i++ {
		lo := reusePoint(&e.fixedA[2*i], dr)
		lo[i] = 1
		e.fixed = append(e.fixed, geom.Halfspace{A: lo, B: box.Lo[i]})
		hi := reusePoint(&e.fixedA[2*i+1], dr)
		hi[i] = -1
		e.fixed = append(e.fixed, geom.Halfspace{A: hi, B: -box.Hi[i]})
	}
	sum := reusePoint(&e.fixedA[2*dr], dr)
	for i := range sum {
		sum[i] = -1
	}
	e.fixed = append(e.fixed, geom.Halfspace{A: sum, B: -1})
}

// buildComplements materialises the complement and the normal's length of
// every partial half-space once, so the candidate loop never re-negates
// (and never re-allocates) normals and the sample loop never re-measures
// them.
func (e *Enumerator) buildComplements(partial []geom.Halfspace) {
	e.complA = grow(e.complA, len(partial))
	e.compl = e.compl[:0]
	e.norms = e.norms[:0]
	for i, h := range partial {
		a := reusePoint(&e.complA[i], len(h.A))
		for j, v := range h.A {
			a[j] = -v
		}
		e.compl = append(e.compl, geom.Halfspace{A: a, B: -h.B})
		e.norms = append(e.norms, math.Sqrt(h.A.Dot(h.A)))
	}
}

// side reports which side of h the point p clears by a normalised distance
// above geom.InteriorTol: 1 inside, -1 outside, 0 neither (p is too close
// to the boundary, or h's normal too short to measure, as the margin LP
// would treat it).
func side(h geom.Halfspace, norm float64, p vecmath.Point) int {
	if norm <= geom.InteriorTol {
		return 0
	}
	switch v := h.A.Dot(p) - h.B; {
	case v > geom.InteriorTol*norm:
		return 1
	case v < -geom.InteriorTol*norm:
		return -1
	}
	return 0
}

// clearsFixed reports whether p clears every fixed row (box faces and
// simplex) from the inside.
func (e *Enumerator) clearsFixed(p vecmath.Point) bool {
	for _, f := range e.fixed {
		if side(f, math.Sqrt(f.A.Dot(f.A)), p) != 1 {
			return false
		}
	}
	return true
}

// Enumerate finds the non-empty cells of the arrangement of the partial
// half-spaces within the leaf box (restricted to the domain simplex), in
// increasing p-order, per Section 5.2 of the paper as the package doc sets
// out: samples drawn first settle most forced/dead classifications and
// pair conditions, the remaining pair conditions are LP-tested, and a walk
// that propagates them as 2-clauses emits, weight by weight, only the
// bit-strings that satisfy all of them. Each emitted string a sample
// exhibits is a cell at once; the rest get the cell LP. Only these emitted
// strings count against Config.CandidateLimit.
//
// A sample within geom.InteriorTol of an active hyperplane, in normalised
// distance, certifies no cell: the LP would call its "cell" empty. LP
// witnesses certify pair conditions only, never a cell, so every cell's
// witness is its first sample in draw order, or else its own cell LP's.
//
// The returned Result owns everything it holds (cells, In sets, witnesses,
// Forced); nothing aliases the enumerator's recycled scratch.
func (e *Enumerator) Enumerate(box geom.Rect, partial []geom.Halfspace, cfg Config) Result {
	limit := cfg.CandidateLimit
	if limit <= 0 {
		limit = DefaultCandidateLimit
	}
	nSamples := cfg.Samples
	if nSamples <= 0 {
		// Scale with leaf density: in crowded leaves each extra sample
		// certifies many pairwise combinations that would otherwise each
		// cost an LP in the condition table.
		nSamples = DefaultSamples
		if 3*len(partial) > nSamples {
			nSamples = 3 * len(partial)
		}
	}
	res := Result{MinWeight: -1, CompleteUpTo: -1, MaxPossibleWeight: len(partial)}

	e.buildFixed(box)

	// A leaf whose box misses the open simplex has no cells at all.
	res.LPCalls++
	anchor, _, ok := e.feas.FeasibleInterior(e.fixed)
	if !ok {
		res.CompleteUpTo = len(partial)
		return res
	}
	// The anchor witness aliases the feasibility checker's buffer, which
	// the classification probes below overwrite: stabilise it first.
	copy(reusePoint(&e.anchor, len(anchor)), anchor)

	e.buildComplements(partial)

	// Sample interior points. Each sample that clears the fixed rows
	// settles, for every half-space it clears, one of the two
	// classification LPs.
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(0))
	}
	e.rng.Seed(cfg.Seed + 0x9e3779b9)
	e.drawSamples(e.rng, box, nSamples)
	inside := reuseBitset(&e.inside, len(partial))
	outside := reuseBitset(&e.outside, len(partial))
	for _, s := range e.samples {
		if !e.clearsFixed(s) {
			continue
		}
		for i, h := range partial {
			switch side(h, e.norms[i], s) {
			case 1:
				inside.Set(i)
			case -1:
				outside.Set(i)
			}
		}
	}

	// Classify each half-space against box ∩ simplex: "forced" ones cover
	// it entirely (they act like |Fl| members), dead ones miss it entirely.
	// A feasible classification LP's witness is kept for the pair pass.
	e.active = e.active[:0]
	e.wits = e.wits[:0]
	for i, h := range partial {
		if !outside.Get(i) {
			if !e.classify(e.compl[i], &res) {
				res.Forced = append(res.Forced, i)
				continue
			}
		}
		if !inside.Get(i) && !e.classify(h, &res) {
			continue // dead: no cell in this leaf lies inside h
		}
		e.active = append(e.active, i)
	}
	m := len(e.active)
	nForced := len(res.Forced)
	res.MaxPossibleWeight = nForced + m

	maxW := nForced + m
	if cfg.MaxWeight >= 0 && cfg.MaxWeight < maxW {
		maxW = cfg.MaxWeight
	}
	if maxW < nForced {
		// Even the emptiest cell carries all forced half-spaces: nothing
		// can satisfy the cap.
		res.CompleteUpTo = maxW
		return res
	}

	// Each sample no active hyperplane passes through certifies the cell
	// of its bit pattern non-empty and feeds the pair conditions.
	e.patterns = grow(e.patterns, nSamples)
	e.keptFrom = e.keptFrom[:0]
samples:
	for si, s := range e.samples {
		pat := reuseBitset(&e.patterns[len(e.keptFrom)], m)
		for ai, oi := range e.active {
			h := partial[oi]
			v := h.A.Dot(s) - h.B
			if math.Abs(v) < geom.InteriorTol*e.norms[oi] {
				continue samples
			}
			if v > 0 {
				pat.Set(ai)
			}
		}
		e.keptFrom = append(e.keptFrom, si)
	}
	e.patterns = e.patterns[:len(e.keptFrom)]
	e.indexPatterns()

	e.resetConditions(m)
	if m >= binaryConditionThreshold {
		res.LPCalls += e.buildBinaryConditions(partial)
	}

	stopW := maxW
	candidates := 0
	// Enumerate active-set Hamming weights aw; total weight = nForced + aw.
	for aw := 0; nForced+aw <= stopW && aw <= m; aw++ {
		if tooManyCombinations(m, aw, limit-candidates) {
			res.Truncated = true
			return res
		}
		found := false
		e.startWalk(m, aw)
		for {
			str, ok := e.nextString()
			if !ok {
				break
			}
			if candidates++; candidates > limit {
				res.Truncated = true
				return res
			}
			if pi := e.known[e.lookup(str)]; pi >= 0 {
				res.SampleHits++
				res.Cells = append(res.Cells, e.cell(res.Forced, str, e.samples[e.keptFrom[pi]], 0))
				found = true
				continue
			}
			e.cons = append(e.cons[:0], e.fixed...)
			for ai, oi := range e.active {
				if str.Get(ai) {
					e.cons = append(e.cons, partial[oi])
				} else {
					e.cons = append(e.cons, e.compl[oi])
				}
			}
			res.LPCalls++
			if witness, margin, ok := e.feas.FeasibleInterior(e.cons); ok {
				res.Cells = append(res.Cells, e.cell(res.Forced, str, witness, margin))
				found = true
			}
		}
		res.CompleteUpTo = nForced + aw
		if found && res.MinWeight < 0 {
			res.MinWeight = nForced + aw
			if s := res.MinWeight + cfg.Extra; s < stopW {
				stopW = s
			}
		}
	}
	if res.CompleteUpTo < 0 {
		res.CompleteUpTo = nForced - 1 // nothing enumerated (cap below forced)
	}
	return res
}

// classify runs one classification LP — box ∩ simplex ∩ h — and keeps its
// witness when it has an interior.
func (e *Enumerator) classify(h geom.Halfspace, res *Result) bool {
	e.probe = append(append(e.probe[:0], e.fixed...), h)
	res.LPCalls++
	w, _, ok := e.feas.FeasibleInterior(e.probe)
	if ok {
		n := len(e.wits)
		e.wits = grow(e.wits, n+1)
		copy(reusePoint(&e.wits[n], len(w)), w)
	}
	return ok
}

// cell materialises a cell from an active-index bitset. The In set and the
// witness are freshly allocated: they outlive this call (and the
// enumerator's recycled sample/LP buffers) inside Results and the caller's
// leaf cache.
func (e *Enumerator) cell(forced []int, str Bitset, witness vecmath.Point, margin float64) Cell {
	in := make([]int, 0, len(forced)+str.Count())
	in = append(in, forced...)
	for ai, oi := range e.active {
		if str.Get(ai) {
			in = append(in, oi)
		}
	}
	return Cell{In: in, Witness: witness.Clone(), Margin: margin}
}

// indexPatterns fills known, sized to at most half full, with the first
// occurrence of each distinct sample pattern.
func (e *Enumerator) indexPatterns() {
	n := 2
	for n < 2*len(e.patterns) {
		n <<= 1
	}
	e.known = grow(e.known, n)
	for i := range e.known {
		e.known[i] = -1
	}
	for pi, pat := range e.patterns {
		if s := e.lookup(pat); e.known[s] < 0 {
			e.known[s] = int32(pi)
		}
	}
}

// lookup returns the slot of known that holds str's pattern, or the empty
// slot where it would go.
func (e *Enumerator) lookup(str Bitset) int {
	mask := len(e.known) - 1
	for s := int(str.hash()) & mask; ; s = (s + 1) & mask {
		if pi := e.known[s]; pi < 0 || e.patterns[pi].Equal(str) {
			return s
		}
	}
}

// drawSamples fills e.samples[:n] with interior points of box ∩ simplex:
// rejection sampling plus jittered copies of the LP anchor for thin
// regions. The sample points are enumerator-owned buffers recycled across
// calls; anything that escapes (a cell witness) is cloned by cell.
func (e *Enumerator) drawSamples(rng *rand.Rand, box geom.Rect, n int) {
	dr := box.Dim()
	e.samples = grow(e.samples, n)
	k := 0
	emit := func(src vecmath.Point) {
		dst := reusePoint(&e.samples[k], dr)
		copy(dst, src)
		k++
	}
	emit(e.anchor)
	tmp := reusePoint(&e.tmp, dr)
	tries := 0
	for k < n && tries < 20*n {
		tries++
		var sum float64
		for i := range tmp {
			tmp[i] = box.Lo[i] + rng.Float64()*(box.Hi[i]-box.Lo[i])
			sum += tmp[i]
		}
		if sum >= 1 {
			continue
		}
		ok := true
		for _, v := range tmp {
			if v <= 0 {
				ok = false
				break
			}
		}
		if ok {
			emit(tmp)
		}
	}
	// Jitter around the anchor to diversify thin-region coverage.
	for k < n {
		var sum float64
		ok := true
		for i := 0; i < dr; i++ {
			span := box.Hi[i] - box.Lo[i]
			tmp[i] = e.anchor[i] + (rng.Float64()-0.5)*0.25*span
			if tmp[i] <= box.Lo[i] || tmp[i] >= box.Hi[i] || tmp[i] <= 0 {
				ok = false
				break
			}
			sum += tmp[i]
		}
		if ok && sum < 1 {
			emit(tmp)
		} else {
			emit(e.anchor)
		}
	}
}

// tooManyCombinations reports whether C(m, w) exceeds the limit. It builds
// C(m−w+i, i) for i = 1, 2, … exactly in uint64 — each step's product is
// divisible by i — and stops as soon as that rising partial value passes
// the limit.
func tooManyCombinations(m, w, limit int) bool {
	if limit <= 0 {
		return true
	}
	if w < 0 || w > m {
		return false
	}
	w = min(w, m-w)
	c := uint64(1)
	for i := 1; i <= w; i++ {
		hi, lo := bits.Mul64(c, uint64(m-w+i))
		if hi >= uint64(i) {
			return true // the quotient needs more than 64 bits
		}
		if c, _ = bits.Div64(hi, lo, uint64(i)); c > uint64(limit) {
			return true
		}
	}
	return false
}
