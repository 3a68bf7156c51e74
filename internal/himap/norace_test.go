//go:build !race

package himap

const raceEnabled = false
