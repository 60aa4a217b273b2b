//go:build race

package sstep

// raceEnabled reports a -race build; the golden tests then solve a
// subset of the large family, since the detector slows the 64000-row
// solves roughly twentyfold.
const raceEnabled = true
