//go:build !linux

package pipeline

// dropResident is a no-op off linux: darwin maps bundles too, but its
// syscall package has no Madvise, and elsewhere there is no mapping to
// trim. Only cold-start RSS accounting differs, never what a reader sees.
func dropResident([]byte) {}
