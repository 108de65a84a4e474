//go:build race

package replicate

// raceEnabled lets tests skip allocation accounting under the race
// detector, whose instrumentation allocates.
const raceEnabled = true
