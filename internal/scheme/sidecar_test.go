package scheme

import (
	"testing"
	"unsafe"
)

// TestStringVectorSideCarSize guards what a string or vector attaches
// besides its heap cell: the side car must stay within the 64-byte size
// class, with closure fields behind a pointer of their own.
func TestStringVectorSideCarSize(t *testing.T) {
	if n := unsafe.Sizeof(objExt{}); n > 64 {
		t.Errorf("unsafe.Sizeof(objExt{}) = %d bytes, want <= 64", n)
	}
}
