//go:build race

package core

// raceBuild switches on the recycled-buffer poison (see poisonRecycled).
const raceBuild = true
