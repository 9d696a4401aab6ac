package cryptolite

import (
	"bytes"
	"testing"
	"testing/quick"
)

func testMAC() *LightMAC {
	var k1, k2 [PresentKeySize]byte
	for i := range k1 {
		k1[i] = byte(i + 1)
		k2[i] = byte(0xA0 + i)
	}
	return NewLightMAC(k1, k2)
}

func TestLightMACDeterministic(t *testing.T) {
	m := testMAC()
	msg := []byte("state broadcast from robot 7")
	if m.MAC(msg) != m.MAC(msg) {
		t.Error("MAC not deterministic")
	}
}

func TestLightMACDistinguishesMessages(t *testing.T) {
	m := testMAC()
	msgs := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("b"),
		[]byte("ab"),
		bytes.Repeat([]byte{0}, 5),
		bytes.Repeat([]byte{0}, 6),  // exactly one chunk
		bytes.Repeat([]byte{0}, 7),  // chunk + 1
		bytes.Repeat([]byte{0}, 12), // two chunks
		bytes.Repeat([]byte{0}, 13),
		bytes.Repeat([]byte{1}, 13),
		bytes.Repeat([]byte{0}, 100),
	}
	seen := map[Tag]int{}
	for i, msg := range msgs {
		tag := m.MAC(msg)
		if j, dup := seen[tag]; dup && !bytes.Equal(msgs[i], msgs[j]) {
			t.Errorf("messages %d and %d collide: %x", i, j, tag)
		}
		seen[tag] = i
	}
	// nil and empty are the same message and must agree.
	if m.MAC(nil) != m.MAC([]byte{}) {
		t.Error("nil and empty message disagree")
	}
}

// Padding soundness: a message must never share a tag with its own
// 0x80-extended variant (the classic 10* padding confusion).
func TestLightMACPaddingUnambiguous(t *testing.T) {
	m := testMAC()
	a := []byte{1, 2, 3}
	b := []byte{1, 2, 3, 0x80}
	c := []byte{1, 2, 3, 0x80, 0}
	if m.MAC(a) == m.MAC(b) || m.MAC(b) == m.MAC(c) || m.MAC(a) == m.MAC(c) {
		t.Error("padding-extension collision")
	}
}

func TestLightMACKeySeparation(t *testing.T) {
	var k1, k2 [PresentKeySize]byte
	k1[0] = 1
	k2[0] = 2
	a := NewLightMAC(k1, k2)
	bm := NewLightMAC(k2, k1) // swapped
	msg := []byte("token request")
	if a.MAC(msg) == bm.MAC(msg) {
		t.Error("swapping K1/K2 should change the tag")
	}
}

func TestLightMACVerify(t *testing.T) {
	m := testMAC()
	msg := []byte("authenticator")
	tag := m.MAC(msg)
	if !m.Verify(msg, tag) {
		t.Error("genuine tag rejected")
	}
	bad := tag
	bad[0] ^= 1
	if m.Verify(msg, bad) {
		t.Error("tampered tag accepted")
	}
	if m.Verify(append(msg, 'x'), tag) {
		t.Error("tag accepted for extended message")
	}
}

// Property: flipping any single bit of the message changes the tag.
func TestLightMACBitFlipProperty(t *testing.T) {
	m := testMAC()
	f := func(msg []byte, pos uint16) bool {
		if len(msg) == 0 {
			return true
		}
		i := int(pos) % len(msg)
		orig := m.MAC(msg)
		mut := append([]byte{}, msg...)
		mut[i] ^= 1 << (pos % 8)
		return m.MAC(mut) != orig
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewLightMACFromSecretStable(t *testing.T) {
	secret := []byte("mission key material")
	a := NewLightMACFromSecret(secret)
	b := NewLightMACFromSecret(secret)
	msg := []byte("x")
	if a.MAC(msg) != b.MAC(msg) {
		t.Error("same secret must derive same MAC keys")
	}
	c := NewLightMACFromSecret([]byte("different"))
	if a.MAC(msg) == c.MAC(msg) {
		t.Error("different secrets should not agree")
	}
}

// The derivation must not alias K1 and K2.
func TestNewLightMACFromSecretDomainSeparation(t *testing.T) {
	m := NewLightMACFromSecret([]byte("s"))
	if m.k1 == m.k2 {
		t.Error("K1 and K2 alias")
	}
	var zero [8]byte
	if m.k1.Encrypt(0) == m.k2.Encrypt(0) {
		t.Error("derived keys encrypt identically")
	}
	_ = zero
}

// The derivation is K1 = SHA1(secret ‖ 0x01)[:10], K2 = SHA1(secret ‖
// 0x02)[:10], whatever the secret's length — including the lengths at
// which secret ‖ tag outgrows the stack buffer it is built in — and a
// keyed instance is a single object with both schedules inside, which
// Rekey fills in place without allocating.
func TestNewLightMACFromSecretDerivation(t *testing.T) {
	msg := []byte("a message longer than one chunk")
	for _, n := range []int{0, 1, SHA1Size, 94, 95, 96, 97, 300} {
		secret := make([]byte, n)
		for i := range secret {
			secret[i] = byte(3*i + n)
		}
		var k1, k2 [PresentKeySize]byte
		h1 := SHA1(append(append([]byte{}, secret...), 0x01))
		h2 := SHA1(append(append([]byte{}, secret...), 0x02))
		copy(k1[:], h1[:])
		copy(k2[:], h2[:])
		want := &LightMAC{k1: *NewPresent(k1), k2: *NewPresent(k2)}
		got := NewLightMACFromSecret(secret)
		if *got != *want {
			t.Errorf("%d-byte secret: key schedules differ from the reference derivation", n)
		}
		if got.MAC(msg) != NewLightMAC(k1, k2).MAC(msg) {
			t.Errorf("%d-byte secret: tag differs from NewLightMAC over the derived keys", n)
		}
	}
	secret := make([]byte, SHA1Size)
	if allocs := testing.AllocsPerRun(50, func() { sinkMAC = NewLightMACFromSecret(secret) }); allocs != 1 {
		t.Errorf("keying from a mission-key-sized secret allocates %v objects, want 1 (the LightMAC)", allocs)
	}
	var m LightMAC
	if allocs := testing.AllocsPerRun(50, func() { m.Rekey(secret) }); allocs != 0 {
		t.Errorf("rekeying in place from a mission-key-sized secret allocates %v objects, want 0", allocs)
	}
	if m != *NewLightMACFromSecret(secret) {
		t.Error("Rekey and NewLightMACFromSecret expand different schedules from one secret")
	}
}

var sinkMAC *LightMAC

func BenchmarkLightMAC_27B(b *testing.B) { benchMAC(b, 27) } // Olfati-Saber state msg
func BenchmarkLightMAC_39B(b *testing.B) { benchMAC(b, 39) } // max token-ish message
func BenchmarkLightMAC_2KB(b *testing.B) { benchMAC(b, 2048) }

func benchMAC(b *testing.B, n int) {
	m := testMAC()
	msg := make([]byte, n)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.MAC(msg)
	}
}
