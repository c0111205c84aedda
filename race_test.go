//go:build race

package mint

// raceEnabled reports a -race build, in which sync.Pool drops entries at
// random, so allocation counts vary from run to run.
const raceEnabled = true
