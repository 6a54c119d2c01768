//go:build !amd64

package trace

import (
	"bytes"
	"runtime"
	"strconv"
)

// curg returns the calling goroutine's ID, parsed from the header line of
// its stack trace (slow, but only the traced build pays it).
func curg() uintptr {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return uintptr(id)
}
