//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package param

import "unsafe"

// Bytes views v's memory as its bytes: 8·len(v) of them, each element's
// little-endian IEEE-754 bit pattern in order — the representation the wire
// (internal/flnet) and the checkpoint files (internal/store) carry. It is a
// view, not a copy: writing to it sets v's bits, and it is valid as long as
// v's array is. A nil or empty v gives an empty view. This file builds only
// on little-endian architectures (encoding/binary's list for NativeEndian),
// where memory holds exactly those bytes; bytes_bigendian.go stops the
// build anywhere else.
func Bytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}
