//go:build race

package main

// raceEnabled is true in a -race build, whose timings the benchmark
// refuses to record.
const raceEnabled = true
