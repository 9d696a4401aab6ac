package trusted

import (
	"math"
	"testing"

	"roborebound/internal/cryptolite"
	"roborebound/internal/wire"
)

// TestMACInputLayouts holds each array-built MAC input to a
// wire.Writer rendering of its layout at the boundary values of every
// field: a byte out of place here would change every tag in the system
// (and, between two builds, make each reject the other's tokens).
func TestMACInputLayouts(t *testing.T) {
	var zero, ones cryptolite.ChainHash
	for i := range ones {
		ones[i] = 0xFF - byte(i)
	}
	check := func(name string, got []byte, want *wire.Writer) {
		t.Helper()
		if string(got) != string(want.Bytes()) {
			t.Errorf("%s:\n got %x\nwant %x", name, got, want.Bytes())
		}
	}
	for _, tick := range []wire.Tick{0, 1, math.MaxUint64} {
		for _, id := range []wire.RobotID{0, 1, 0x1234, wire.Broadcast} {
			peer := wire.Broadcast - id
			for _, h := range []cryptolite.ChainHash{zero, ones} {
				auth := authMACInput(wire.NodeA, tick, h, id)
				w := wire.NewWriter(0)
				w.U8(tagAUTH)
				w.U8(wire.NodeA)
				w.U64(uint64(tick))
				w.Raw(h[:])
				w.U16(uint16(id))
				check("authMACInput", auth[:], w)

				tok := tokenMACInput(id, peer, tick, h)
				w = wire.NewWriter(0)
				w.U8(tagTOKEN)
				w.U16(uint16(id))
				w.U16(uint16(peer))
				w.U64(uint64(tick))
				w.Raw(h[:])
				check("tokenMACInput", tok[:], w)

				mkey := mkeyMACInput(h, uint64(tick), uint64(id))
				w = wire.NewWriter(0)
				w.U8(tagMKEY)
				w.Raw(h[:])
				w.U64(uint64(tick))
				w.U64(uint64(id))
				check("mkeyMACInput", mkey[:], w)
			}
			treq := treqMACInput(tick, id, peer)
			w := wire.NewWriter(0)
			w.U8(tagTREQ)
			w.U64(uint64(tick))
			w.U16(uint16(id))
			w.U16(uint16(peer))
			check("treqMACInput", treq[:], w)
		}
		// blindPad and masterMAC prefix through a local array that a
		// long master key outgrows; both sides of that edge must agree
		// with the plain concatenation.
		for _, n := range []int{0, 1, masterKeyStack, masterKeyStack + 1, 3 * masterKeyStack} {
			master := make([]byte, n)
			for i := range master {
				master[i] = byte(i + 1)
			}
			w := wire.NewWriter(0)
			w.U64(uint64(tick))
			w.Raw(master)
			if got, want := blindPad(master, uint64(tick)), cryptolite.SHA1(w.Bytes()); got != want {
				t.Errorf("blindPad(%d-byte master, r=%d) = %x, want %x", n, tick, got, want)
			}
			msg := []byte("probe")
			want := cryptolite.NewLightMACFromSecret(append([]byte("master:"), master...)).MAC(msg)
			mm := masterMAC(master)
			if got := mm.MAC(msg); got != want {
				t.Errorf("masterMAC(%d-byte master) tags %x, want %x", n, got, want)
			}
		}
	}
}

// TestTokenPathDoesNotAllocate pins the MAC-bearing calls of an audit
// round at zero allocations: the inputs are built in the caller's frame
// and LightMAC keeps nothing it is handed.
func TestTokenPathDoesNotAllocate(t *testing.T) {
	var now wire.Tick
	_, auditee := provisioned(t, 1, &now)
	s, auditor := provisioned(t, 2, &now)
	hCkpt := cryptolite.SHA1([]byte("checkpoint"))

	now = 100
	req, ok := auditee.MakeTokenRequest(2)
	if !ok {
		t.Fatal("token request refused")
	}
	tok, ok := auditor.IssueToken(req, hCkpt)
	if !ok {
		t.Fatal("token refused")
	}
	auth, ok := s.MakeAuthenticator()
	if !ok {
		t.Fatal("authenticator refused")
	}

	for _, c := range []struct {
		name string
		call func() bool
	}{
		{"MakeTokenRequest", func() bool {
			now += 100 // keeps the leaky bucket full: a refusal would skip the MAC
			_, ok := auditee.MakeTokenRequest(2)
			return ok
		}},
		{"IssueToken", func() bool { _, ok := auditor.IssueToken(req, hCkpt); return ok }},
		{"InstallToken", func() bool { return auditee.InstallToken(tok) }},
		{"VerifyToken", func() bool { return auditor.VerifyToken(tok) }},
		{"MakeAuthenticator", func() bool { _, ok := s.MakeAuthenticator(); return ok }},
		{"CheckAuthenticator", func() bool { return auditor.CheckAuthenticator(auth) }},
	} {
		if n := testing.AllocsPerRun(100, func() {
			if !c.call() {
				t.Fatalf("%s refused", c.name)
			}
		}); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", c.name, n)
		}
	}
}
