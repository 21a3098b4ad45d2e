//go:build !race

package repro_test

// raceEnabled reports a build with the race detector, whose
// instrumentation allocates: allocation budgets hold only without it.
const raceEnabled = false
