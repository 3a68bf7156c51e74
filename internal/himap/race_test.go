//go:build race

package himap

// raceEnabled lets memory-ceiling tests skip under the race detector,
// whose shadow memory multiplies the resident set several times over.
const raceEnabled = true
