package authn

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// confidentialWire shields payload (a batch of n items when n > 1) on a
// confidential channel and returns its wire bytes.
func confidentialWire(t *testing.T, a *Shielder, n int) []byte {
	t.Helper()
	var env Envelope
	var err error
	if n > 1 {
		env, err = a.ShieldBatch("ab", batchOf(n))
	} else {
		env, err = a.Shield("ab", 3, []byte("confidential payload"))
	}
	if err != nil {
		t.Fatalf("shield: %v", err)
	}
	if !env.Enc || len(env.MAC) != 0 {
		t.Fatalf("confidential envelope: Enc %v, %d-byte MAC; want Enc and no MAC", env.Enc, len(env.MAC))
	}
	return env.Encode()
}

// TestConfidentialTamperEveryByte flips each byte of a confidential
// envelope's wire form in turn — header (view, epoch, seq, kind, flags,
// group), nonce, ciphertext and GCM tag — and requires ErrBadMAC for every
// flip that still decodes onto the channel: the GCM tag is the only
// authenticator, so it alone must catch every one. The authentic envelope
// still delivers afterwards: no rejection moved a counter.
func TestConfidentialTamperEveryByte(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("items=%d", n), func(t *testing.T) {
			a, b := newPair(t, WithConfidentiality())
			data := confidentialWire(t, a, n)
			name := headerSize // the channel name follows the fixed header
			checked := 0
			for i := range data {
				if i >= name-2 && i < name+len("ab")+4 {
					continue // the name, its length and the payload length: decode or channel lookup fails first
				}
				if i >= len(data)-4 {
					continue // the (zero) MAC length
				}
				bad := bytes.Clone(data)
				bad[i] ^= 0xff
				var e Envelope
				if err := b.DecodeEnvelopeInto(&e, bad); err != nil {
					t.Fatalf("byte %d: decode: %v", i, err)
				}
				if _, _, err := b.Verify(e); !errors.Is(err, ErrBadMAC) {
					t.Fatalf("byte %d flipped: err = %v, want ErrBadMAC", i, err)
				}
				checked++
			}
			if checked < 64 {
				t.Fatalf("only %d bytes checked", checked)
			}
			var e Envelope
			if err := b.DecodeEnvelopeInto(&e, data); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if st, got, err := b.Verify(e); err != nil || st != Delivered || len(got) != n {
				t.Fatalf("authentic envelope after the tampered ones: %v, %d delivered, %v", st, len(got), err)
			}
		})
	}
}

// TestConfidentialModeMismatch: a channel's mode is fixed when it opens. A
// confidential channel takes only sealed envelopes with an empty MAC field;
// an integrity-only channel takes no sealed ones. Everything else is a bad
// MAC, and a replayed authentic envelope is a replay.
func TestConfidentialModeMismatch(t *testing.T) {
	plainA, plainB := newPair(t)
	confA, confB := newPair(t, WithConfidentiality())

	if _, _, err := confB.Verify(mustShield(t, plainA, "ab", 1, []byte("v"))); !errors.Is(err, ErrBadMAC) {
		t.Errorf("plain envelope on a confidential channel: err = %v, want ErrBadMAC", err)
	}
	if _, _, err := plainB.Verify(mustShield(t, confA, "ab", 1, []byte("v"))); !errors.Is(err, ErrBadMAC) {
		t.Errorf("sealed envelope on an integrity channel: err = %v, want ErrBadMAC", err)
	}
	withMAC := mustShield(t, confA, "ab", 1, []byte("v"))
	withMAC.MAC = bytes.Repeat([]byte{1}, macLen)
	if _, _, err := confB.Verify(withMAC); !errors.Is(err, ErrBadMAC) {
		t.Errorf("confidential envelope carrying a MAC: err = %v, want ErrBadMAC", err)
	}

	a, b := newPair(t, WithConfidentiality())
	env := mustShield(t, a, "ab", 1, []byte("once"))
	if st, _, err := b.Verify(env); err != nil || st != Delivered {
		t.Fatalf("first delivery: %v, %v", st, err)
	}
	if _, _, err := b.Verify(env); !errors.Is(err, ErrReplay) {
		t.Errorf("replayed confidential envelope: err = %v, want ErrReplay", err)
	}
}

// TestConfidentialOutOfOrderDelivery: three confidential envelopes arriving
// 3, 2, 1 come out of the last Verify in order with the right plaintexts.
// The first two are opened on arrival and parked as copies, so reusing
// their wire buffers does not disturb them, and draining opens nothing.
func TestConfidentialOutOfOrderDelivery(t *testing.T) {
	a, b := newPair(t, WithConfidentiality())
	want := []string{"one", "two", "three"}
	wires := make([][]byte, len(want))
	for i, p := range want {
		env := mustShield(t, a, "ab", uint16(i+1), []byte(p))
		wires[i] = env.Encode()
	}
	for _, i := range []int{2, 1} {
		var e Envelope
		if err := b.DecodeEnvelopeInto(&e, wires[i]); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if st, _, err := b.Verify(e); err != nil || st != Buffered {
			t.Fatalf("envelope %d: %v, %v; want Buffered", i+1, st, err)
		}
		clear(wires[i]) // the transport reuses its buffer
	}
	var e Envelope
	if err := b.DecodeEnvelopeInto(&e, wires[0]); err != nil {
		t.Fatalf("decode: %v", err)
	}
	st, got, err := b.Verify(e)
	if err != nil || st != Delivered || len(got) != len(want) {
		t.Fatalf("Verify: %v, %d delivered, %v", st, len(got), err)
	}
	for i, d := range got {
		if d.Seq != uint64(i+1) || d.Kind != uint16(i+1) || string(d.Payload) != want[i] || d.Enc {
			t.Errorf("delivery %d = seq %d kind %d %q enc %v, want seq %d %q", i, d.Seq, d.Kind, d.Payload, d.Enc, i+1, want[i])
		}
	}
	if b.PendingFuture("ab") != 0 || b.PendingFutureBytes("ab") != 0 {
		t.Errorf("future buffer not drained: %d msgs, %d bytes", b.PendingFuture("ab"), b.PendingFutureBytes("ab"))
	}
}
