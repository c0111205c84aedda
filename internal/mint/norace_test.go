//go:build !race

package mint

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
