//go:build race

package main

// The race detector slows the system some tenfold; the toy runs need that
// much longer before their windows see a group commit.
const raceSlowdown = 8
