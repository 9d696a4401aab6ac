//go:build !amd64

package cryptolite

// Off amd64 there is no SHA-1 kernel: the streaming digests keep the
// standard library's, which is assembly on arm64 and s390x.

func hasSHANI() bool { return false }

func blockSHANI(h *[5]uint32, p []byte) { blockGeneric(h, p) }
