//go:build !race

package core

// raceBuild reports a build the race detector instruments.
const raceBuild = false
