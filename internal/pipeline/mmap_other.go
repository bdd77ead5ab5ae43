//go:build !(linux || darwin)

package pipeline

import (
	"fmt"
	"os"
)

const mmapSupported = false

func mmapFile(f *os.File, size int) ([]byte, func() error, error) {
	return nil, nil, fmt.Errorf("pipeline: mmap is not supported on this platform")
}
