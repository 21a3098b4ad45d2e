// Package cellenum implements the within-leaf processing module of Section
// 5.2 of the MaxRank paper: enumerate arrangement cells inside one quad-tree
// leaf in increasing p-order (Hamming weight of the cell's bit-string),
// pruning bit-strings that violate pairwise binary conditions, and testing
// the survivors for non-zero extent by half-space intersection (LP).
package cellenum

import (
	"math"
	"math/big"
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
	// CandidateLimit aborts pathological leaves: when the number of
	// bit-strings surviving pruning exceeds this, enumeration stops and
	// Result.Truncated is set. Zero means DefaultCandidateLimit.
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
	// Pruned counts bit-strings rejected without an LP.
	Pruned int
	// SampleHits counts cells certified non-empty by sampling alone.
	SampleHits int
	// Truncated indicates the candidate limit was hit; results may be
	// incomplete (callers must treat this leaf conservatively).
	Truncated bool
}

// sampleCell is one distinct bit pattern certified non-empty by a sample.
type sampleCell struct {
	witness vecmath.Point
	weight  int
}

// Enumerator owns the scratch of within-leaf enumeration — the pooled LP
// solver, constraint buffers, sample points, bit patterns, the pairwise
// condition tables and the subset-DFS state — and recycles all of it across
// Enumerate calls. One query worker holds one Enumerator, so the per-cell
// hot path performs no steady-state allocations beyond the cells it
// actually returns (whose In sets and witnesses escape into Results).
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

	active   []int
	samples  []vecmath.Point
	patterns []Bitset
	known    map[string]sampleCell
	keyBuf   []byte

	// Subset-DFS scratch.
	sel       []int
	bits      Bitset
	forbidden Bitset
	scratch   []Bitset

	// Pairwise binary-condition tables.
	cond        binaryConditions
	memberOf    []Bitset
	notMemberOf []Bitset
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
	// mirror caller B values only — nothing external; keep them. known maps
	// sample keys to enumerator-owned sample points; clear to free the key
	// strings.
	clear(e.known)
}

func clearHS(hs []geom.Halfspace) {
	hs = hs[:cap(hs)]
	for i := range hs {
		hs[i] = geom.Halfspace{}
	}
}

// reusePoint resizes *p to dr coordinates, reusing its capacity, and zeroes
// it.
func reusePoint(p *vecmath.Point, dr int) vecmath.Point {
	if cap(*p) < dr {
		*p = make(vecmath.Point, dr)
	}
	*p = (*p)[:dr]
	for i := range *p {
		(*p)[i] = 0
	}
	return *p
}

// reuseBitset resizes *b to hold n bits, reusing its capacity, and zeroes
// it.
func reuseBitset(b *Bitset, n int) Bitset {
	w := (n + 63) / 64
	if cap(*b) < w {
		*b = make(Bitset, w)
	}
	*b = (*b)[:w]
	for i := range *b {
		(*b)[i] = 0
	}
	return *b
}

// buildFixed assembles the leaf's fixed constraints — the box faces plus
// the domain simplex boundary Σ q_i <= 1 — into the reusable fixed buffer
// (axis bounds q_i > 0 are implied by box ⊆ [0,1]^dr).
func (e *Enumerator) buildFixed(box geom.Rect) {
	dr := box.Dim()
	need := 2*dr + 1
	for len(e.fixedA) < need {
		e.fixedA = append(e.fixedA, nil)
	}
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
	for len(e.complA) < len(partial) {
		e.complA = append(e.complA, nil)
	}
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

// Enumerate finds the non-empty cells of the arrangement of the partial
// half-spaces within the leaf box (restricted to the domain simplex), in
// increasing p-order, per Section 5.2 of the paper: bit-strings in
// increasing Hamming weight, pairwise binary conditions to skip provably
// empty combinations, and half-space intersection (LP) for the rest.
//
// Beyond the paper, random interior samples certify many combinations
// non-empty without any LP, and half-spaces that fully cover or fully miss
// box ∩ simplex are factored out of the combinatorial search up front.
// A sample within geom.InteriorTol of an active hyperplane, in normalised
// distance, certifies nothing: the LP would call its "cell" empty.
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
	if cap(e.anchor) < len(anchor) {
		e.anchor = make(vecmath.Point, len(anchor))
	}
	e.anchor = e.anchor[:len(anchor)]
	copy(e.anchor, anchor)

	e.buildComplements(partial)

	// Classify each half-space against box ∩ simplex: "forced" ones cover
	// it entirely (they act like |Fl| members), dead ones miss it entirely.
	e.active = e.active[:0]
	for i, h := range partial {
		e.probe = append(e.probe[:0], e.fixed...)
		res.LPCalls++
		if _, _, ok := e.feas.FeasibleInterior(append(e.probe, e.compl[i])); !ok {
			res.Forced = append(res.Forced, i)
			continue
		}
		e.probe = append(e.probe[:0], e.fixed...)
		res.LPCalls++
		if _, _, ok := e.feas.FeasibleInterior(append(e.probe, h)); !ok {
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

	// Sample interior points; each sample's bit pattern certifies one cell
	// non-empty and feeds the pairwise-condition tables.
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(0))
	}
	e.rng.Seed(cfg.Seed + 0x9e3779b9)
	e.drawSamples(e.rng, box, nSamples)
	if e.known == nil {
		e.known = make(map[string]sampleCell)
	} else {
		clear(e.known)
	}
	for len(e.patterns) < nSamples {
		e.patterns = append(e.patterns, nil)
	}
	e.patterns = e.patterns[:nSamples]
	kept := 0
samples:
	for si := 0; si < nSamples; si++ {
		s := e.samples[si]
		bits := reuseBitset(&e.patterns[kept], m)
		w := 0
		for ai, oi := range e.active {
			h := partial[oi]
			v := h.A.Dot(s) - h.B
			if math.Abs(v) < geom.InteriorTol*e.norms[oi] {
				continue samples
			}
			if v > 0 {
				bits.Set(ai)
				w++
			}
		}
		kept++
		e.keyBuf = bits.AppendKey(e.keyBuf[:0])
		if _, seen := e.known[string(e.keyBuf)]; !seen {
			e.known[string(e.keyBuf)] = sampleCell{witness: s, weight: w}
		}
	}
	e.patterns = e.patterns[:kept]

	var cond *binaryConditions
	if m >= binaryConditionThreshold {
		cond = e.buildBinaryConditions(partial, &res)
	}

	// mkCell materialises a cell from an active-index bitset. The In set
	// and the witness are freshly allocated: they outlive this call (and
	// the enumerator's recycled sample/LP buffers) inside Results and the
	// caller's leaf cache.
	mkCell := func(bits Bitset, witness vecmath.Point, margin float64) Cell {
		in := make([]int, 0, nForced+bits.Count())
		in = append(in, res.Forced...)
		for ai, oi := range e.active {
			if bits.Get(ai) {
				in = append(in, oi)
			}
		}
		return Cell{In: in, Witness: witness.Clone(), Margin: margin}
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
		abort := false
		e.forEachSubsetDFS(m, aw, cond, func(sel []int, bits Bitset) bool {
			candidates++
			if candidates > limit {
				abort = true
				return false
			}
			if cond != nil && !cond.completeOK(bits, m) {
				res.Pruned++
				return true
			}
			e.keyBuf = bits.AppendKey(e.keyBuf[:0])
			if sc, ok := e.known[string(e.keyBuf)]; ok {
				res.SampleHits++
				res.Cells = append(res.Cells, mkCell(bits, sc.witness, 0))
				found = true
				return true
			}
			e.cons = append(e.cons[:0], e.fixed...)
			for ai, oi := range e.active {
				if bits.Get(ai) {
					e.cons = append(e.cons, partial[oi])
				} else {
					e.cons = append(e.cons, e.compl[oi])
				}
			}
			res.LPCalls++
			if witness, margin, ok := e.feas.FeasibleInterior(e.cons); ok {
				res.Cells = append(res.Cells, mkCell(bits, witness, margin))
				found = true
			}
			return true
		})
		if abort {
			res.Truncated = true
			return res
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

// drawSamples fills e.samples[:n] with interior points of box ∩ simplex:
// rejection sampling plus jittered copies of the LP anchor for thin
// regions. The sample points are enumerator-owned buffers recycled across
// calls; anything that escapes (a cell witness) is cloned by mkCell.
func (e *Enumerator) drawSamples(rng *rand.Rand, box geom.Rect, n int) {
	dr := box.Dim()
	for len(e.samples) < n {
		e.samples = append(e.samples, nil)
	}
	e.samples = e.samples[:n]
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

// binaryConditions holds, for every ordered pair of active half-spaces,
// which joint bit patterns are impossible within the leaf (paper Figure 4,
// generalised to all four pattern combinations).
type binaryConditions struct {
	conflict11 []Bitset // j set in conflict11[i]: i=1,j=1 impossible
	requires1  []Bitset // j set in requires1[i]: i=1 forces j=1
	conflict00 []Bitset // j set in conflict00[i]: i=0,j=0 impossible
}

// reuseBitsetTable resizes a table to m bitsets of n bits each, recycling
// rows.
func reuseBitsetTable(tbl *[]Bitset, m, n int) []Bitset {
	for len(*tbl) < m {
		*tbl = append(*tbl, nil)
	}
	*tbl = (*tbl)[:m]
	for i := range *tbl {
		reuseBitset(&(*tbl)[i], n)
	}
	return *tbl
}

// buildBinaryConditions derives the tables, using sample patterns to avoid
// LPs for combinations already certified non-empty.
func (e *Enumerator) buildBinaryConditions(partial []geom.Halfspace, res *Result) *binaryConditions {
	m := len(e.active)
	bc := &e.cond
	bc.conflict11 = reuseBitsetTable(&bc.conflict11, m, m)
	bc.requires1 = reuseBitsetTable(&bc.requires1, m, m)
	bc.conflict00 = reuseBitsetTable(&bc.conflict00, m, m)
	// memberOf[i] holds, as a bitset over samples, which samples fall inside
	// half-space i; pairwise combo coverage then reduces to word-level
	// intersections instead of per-pair bit probes.
	nS := len(e.patterns)
	memberOf := reuseBitsetTable(&e.memberOf, m, nS)
	for s, bits := range e.patterns {
		for i := 0; i < m; i++ {
			if bits.Get(i) {
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
	seen := func(i, j int, combo int) bool {
		var a, b Bitset
		if combo&2 != 0 {
			a = memberOf[i]
		} else {
			a = notMemberOf[i]
		}
		if combo&1 != 0 {
			b = memberOf[j]
		} else {
			b = notMemberOf[j]
		}
		return a.IntersectsAny(b)
	}
	test := func(a, b geom.Halfspace) bool {
		e.probe = append(e.probe[:0], e.fixed...)
		e.probe = append(e.probe, a, b)
		res.LPCalls++
		_, _, ok := e.feas.FeasibleInterior(e.probe)
		return ok
	}
	for i := 0; i < m; i++ {
		oi := e.active[i]
		hi, ci := partial[oi], e.compl[oi]
		for j := i + 1; j < m; j++ {
			oj := e.active[j]
			hj, cj := partial[oj], e.compl[oj]
			if !seen(i, j, 3) && !test(hi, hj) { // 1,1
				bc.conflict11[i].Set(j)
				bc.conflict11[j].Set(i)
			}
			if !seen(i, j, 2) && !test(hi, cj) { // 1,0
				bc.requires1[i].Set(j)
			}
			if !seen(i, j, 1) && !test(ci, hj) { // 0,1
				bc.requires1[j].Set(i)
			}
			if !seen(i, j, 0) && !test(ci, cj) { // 0,0
				bc.conflict00[i].Set(j)
				bc.conflict00[j].Set(i)
			}
		}
	}
	return bc
}

// completeOK validates the conditions that need the complete assignment
// (requires1 and conflict00); conflict11 is enforced during the DFS.
func (bc *binaryConditions) completeOK(bits Bitset, m int) bool {
	for i := 0; i < m; i++ {
		if bits.Get(i) {
			if !bits.ContainsAll(bc.requires1[i]) {
				return false
			}
		} else if !bits.ContainsAll(bc.conflict00[i]) {
			return false
		}
	}
	return true
}

// forEachSubsetDFS enumerates size-w subsets of {0..m-1} in lexicographic
// order, pruning branches whose chosen bits already violate a 1,1 conflict.
// fn returning false aborts. All DFS state lives in recycled enumerator
// scratch.
func (e *Enumerator) forEachSubsetDFS(m, w int, cond *binaryConditions, fn func(sel []int, bits Bitset) bool) {
	bits := reuseBitset(&e.bits, m)
	if w == 0 {
		fn(nil, bits)
		return
	}
	if w > m {
		return
	}
	if cap(e.sel) < w {
		e.sel = make([]int, 0, w)
	}
	sel := e.sel[:0]
	var forbidden Bitset
	if cond != nil {
		forbidden = reuseBitset(&e.forbidden, m)
		e.scratch = reuseBitsetTable(&e.scratch, w, m)
	}
	ok := true
	var dfs func(start int)
	dfs = func(start int) {
		if !ok {
			return
		}
		need := w - len(sel)
		if need == 0 {
			ok = fn(sel, bits)
			return
		}
		for i := start; i <= m-need && ok; i++ {
			if cond != nil && forbidden.Get(i) {
				continue
			}
			sel = append(sel, i)
			bits.Set(i)
			if cond != nil {
				depth := len(sel) - 1
				copy(e.scratch[depth], forbidden)
				for k := range forbidden {
					forbidden[k] |= cond.conflict11[i][k]
				}
				dfs(i + 1)
				copy(forbidden, e.scratch[depth])
			} else {
				dfs(i + 1)
			}
			bits.Clear(i)
			sel = sel[:len(sel)-1]
		}
	}
	dfs(0)
}

// forEachSubsetDFS is kept as a free function for tests and one-off
// callers.
func forEachSubsetDFS(m, w int, cond *binaryConditions, fn func(sel []int, bits Bitset) bool) {
	var e Enumerator
	e.forEachSubsetDFS(m, w, cond, fn)
}

// tooManyCombinations reports whether C(m, w) exceeds the limit.
func tooManyCombinations(m, w, limit int) bool {
	if limit <= 0 {
		return true
	}
	c := big.NewInt(1)
	c.Binomial(int64(m), int64(w))
	return c.Cmp(big.NewInt(int64(limit))) > 0
}
