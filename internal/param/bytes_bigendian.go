//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package param

// Bytes (bytes.go) hands out a vector's memory as its little-endian bytes,
// which it is only on a little-endian architecture; this one is not.
var _ = paramBytesRequiresLittleEndianArchitecture
