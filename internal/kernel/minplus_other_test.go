//go:build !amd64 || purego || race

package kernel

// withScalarBodies runs f; builds without the AVX2 body only have the
// scalar ones.
func withScalarBodies(f func()) { f() }
