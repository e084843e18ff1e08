package core

import (
	"bytes"
	"testing"

	"recipe/internal/attest"
	"recipe/internal/authn"
	"recipe/internal/netstack"
)

// TestConfidentialTamperCountsOneMACDrop: on a confidential node the GCM tag
// is the only authenticator, so a flipped byte anywhere in the header,
// nonce, ciphertext or tag — or an envelope in the wrong mode — is counted
// once as a MAC drop, like an HMAC failure on an integrity-only channel,
// and under no other counter.
func TestConfidentialTamperCountsOneMACDrop(t *testing.T) {
	master := bytes.Repeat([]byte{5}, 32)
	ep, err := netstack.NewFabric().Register("n1")
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	// No protocol: nothing here may get past the authn layer.
	n, err := NewNode(testEnclave(t, "n1"), ep, nil, NodeConfig{
		Secrets:      attest.Secrets{NodeID: "n1", MasterKey: master, Membership: []string{"n1", "n2"}},
		Shielded:     true,
		Confidential: true,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	cq := n.peerChannel("n2", "n1")
	key := attest.ChannelKey(master, cq)
	confidential := authn.NewShielder(testEnclave(t, "n2"), authn.WithConfidentiality())
	plain := authn.NewShielder(testEnclave(t, "n2"))
	for _, s := range []*authn.Shielder{confidential, plain} {
		if err := s.OpenChannel(cq, key); err != nil {
			t.Fatalf("OpenChannel: %v", err)
		}
	}
	payload := (&Wire{Kind: KindClientReq, From: "n2", Key: "k", Value: []byte("secret")}).Encode()
	seal := func(s *authn.Shielder) []byte {
		env, err := s.Shield(cq, 1, payload)
		if err != nil {
			t.Fatalf("Shield: %v", err)
		}
		return env.Encode()
	}

	data := seal(confidential)
	nameEnd := 33 + len(cq) // fixed header, then the channel name
	cases := map[string][]byte{"plain envelope": seal(plain)}
	for name, at := range map[string]int{
		"seq":        16,
		"flags":      26,
		"group":      27,
		"nonce":      nameEnd + 4,
		"ciphertext": nameEnd + 4 + 12 + 2,
		"tag":        len(data) - 4 - 1,
	} {
		bad := bytes.Clone(data)
		bad[at] ^= 0xff
		cases[name] = bad
	}
	for name, frame := range cases {
		before := n.stats.DropMAC.Load()
		n.handleFrame("n2", frame)
		if got := n.stats.DropMAC.Load() - before; got != 1 {
			t.Errorf("%s: DropMAC rose by %d, want 1", name, got)
		}
	}
	s := &n.stats
	for name, c := range map[string]uint64{
		"Delivered": s.Delivered.Load(), "Buffered": s.Buffered.Load(), "DropReplay": s.DropReplay.Load(),
		"DropView": s.DropView.Load(), "DropGroup": s.DropGroup.Load(), "DropEpoch": s.DropEpoch.Load(),
		"DropMalformed": s.DropMalformed.Load(),
	} {
		if c != 0 {
			t.Errorf("%s = %d after tampered frames only, want 0", name, c)
		}
	}
}
