package repro

import (
	"fmt"
	"strings"
)

// Algorithm selects the MaxRank processing strategy.
type Algorithm int

const (
	// Auto picks the paper's best algorithm for the dimensionality: the
	// specialised AA for d = 2 and the general AA otherwise.
	Auto Algorithm = iota
	// FCA is the first-cut score-line sweep, d = 2 only (Section 4).
	FCA
	// BA is the basic approach: every incomparable record's half-space is
	// materialised (Section 5). It does not scale; it exists as the paper's
	// baseline.
	BA
	// AA is the advanced approach with implicit half-space subsumption
	// (Section 6); for d = 2 it uses the sorted-list specialisation of
	// Section 6.3.
	AA
)

// String returns the algorithm's canonical name ("Auto", "FCA", "BA",
// "AA"); ParseAlgorithm accepts it back, case-insensitively.
func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "Auto"
	case FCA:
		return "FCA"
	case BA:
		return "BA"
	case AA:
		return "AA"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps a name to an Algorithm, case-insensitively, so that
// ParseAlgorithm(a.String()) round-trips for every Algorithm.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range []Algorithm{Auto, FCA, BA, AA} {
		if strings.EqualFold(name, a.String()) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("repro: unknown algorithm %q", name)
}

// QueryOptions is the struct form of a query's configuration: the single
// source of truth the functional With* options write into. Callers that
// assemble options from data (a decoded API request, a config file) use
// the struct directly via Engine.QueryOpts and friends; callers that
// prefer the option-list style keep using With*, which are thin adapters
// over this struct. The zero value is a plain Auto MaxRank query. The
// quad-tree partitioning is not a query option: it comes from the
// dataset (WithQuadDefaults).
type QueryOptions struct {
	// Algorithm selects the strategy (default Auto).
	Algorithm Algorithm
	// Tau enables iMaxRank: regions with rank up to k*+tau are reported
	// (0 = plain MaxRank).
	Tau int
	// OutrankIDs materialises, per region, the IDs of the records that
	// outrank the focal record there.
	OutrankIDs bool
}

// option converts the struct to a single functional option that installs
// it wholesale — the bridge that lets the *Opts entry points share every
// code path with the option-list ones.
func (o QueryOptions) option() Option {
	return func(c *QueryOptions) { *c = o }
}

// Option configures one Engine query (Query, QueryPoint, QueryBatch).
// With* constructors are thin adapters over QueryOptions; see that type
// for the field semantics.
type Option func(*QueryOptions)

// WithAlgorithm forces a specific algorithm (default Auto).
func WithAlgorithm(a Algorithm) Option {
	return func(c *QueryOptions) { c.Algorithm = a }
}

// WithTau enables iMaxRank: regions where the focal record ranks within
// k*+tau are reported (default 0 = plain MaxRank).
func WithTau(tau int) Option {
	return func(c *QueryOptions) { c.Tau = tau }
}

// WithOutrankIDs materialises, per region, the IDs of the records that
// outrank the focal record there (the paper's R_c — the minimal set whose
// removal makes p the top record in that region, together with the
// dominators).
func WithOutrankIDs(on bool) Option {
	return func(c *QueryOptions) { c.OutrankIDs = on }
}
