package sim

// Test fixtures shared with the external sim_test package, whose tests
// drive the engine through fleet.Run (fleet imports sim, so they cannot
// live in package sim).
var (
	TieBreakEnclaves = tieBreakEnclaves
	FirstDiffLine    = firstDiffLine
)
