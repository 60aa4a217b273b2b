//go:build !race

package sstep

const raceEnabled = false
