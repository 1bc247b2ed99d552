//go:build race

package dsp

// raceEnabled reports a -race build, whose sync.Pool drops items at random.
const raceEnabled = true
