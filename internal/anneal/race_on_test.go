//go:build race

package anneal

// raceEnabled lets tests skip allocation accounting under the race
// detector, whose instrumentation allocates.
const raceEnabled = true
