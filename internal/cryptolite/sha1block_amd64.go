package cryptolite

// blockSHANI compresses the whole 64-byte blocks of p into h with the
// SHA extensions; a tail shorter than a block is ignored.
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// hasSHANI reports whether the CPU runs blockSHANI: SSSE3 (PSHUFB),
// SSE4.1 (PINSRD, PEXTRD) and the SHA extensions.
func hasSHANI() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	const ssse3, sse41, sha = 1 << 9, 1 << 19, 1 << 29
	return ecx1&ssse3 != 0 && ecx1&sse41 != 0 && ebx7&sha != 0
}
