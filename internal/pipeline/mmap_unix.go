//go:build linux || darwin

package pipeline

import (
	"os"
	"syscall"
)

// mmapSupported reports whether this build can memory-map bundle files.
// On unsupported platforms OpenBundleMapped silently falls back to
// reading the file into heap memory (still lazily decoded).
const mmapSupported = true

// mmapFile maps size bytes of f read-only. The returned closer unmaps;
// the mapping (and anything aliasing into it) must not be touched after
// it runs.
func mmapFile(f *os.File, size int) ([]byte, func() error, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
