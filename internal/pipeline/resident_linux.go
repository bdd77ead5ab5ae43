package pipeline

import "syscall"

// dropResident tells the kernel this process no longer needs data's
// pages resident. For a clean read-only MAP_SHARED file mapping the
// pages re-fault from the page cache (or disk) on the next touch with
// identical contents, so this only trims RSS accounting — it can never
// change what a reader sees. MappedBundle.dropLazy is the one caller:
// the open-time skip-scan and first-touch view decodes would otherwise
// leave every page they faulted in counted against the process.
func dropResident(data []byte) {
	if len(data) > 0 {
		syscall.Madvise(data, syscall.MADV_DONTNEED)
	}
}
