//go:build race

package core

// raceBuild reports a build the race detector instruments. Its larger
// stack frames double goroutine stacks, so stack bounds hold only for
// uninstrumented builds.
const raceBuild = true
