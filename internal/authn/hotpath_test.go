package authn

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"recipe/internal/tee"
)

// TestHotPathAllocBudget is the allocation-regression guard for the
// steady-state data plane (seal -> encode -> decode -> verify). An
// integrity-only message costs 1 allocation — the MAC tag (32 B, so
// envelopes remain independent of the channel scratch). A confidential one
// costs none: the GCM seal goes into a pooled buffer, its tag is the MAC,
// and the plaintext opens into the receiving channel's scratch. The
// receiver's DecodeEnvelopeInto hands out the open channel's own name, so
// decoding costs nothing in either mode. CI runs BenchmarkHotPathAllocs
// against the same budgets; this test fails the ordinary `go test` run long
// before the workflow does.
func TestHotPathAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   []Option
		budget float64
	}{
		{"integrity", nil, 1},
		{"confidential", []Option{WithConfidentiality()}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := newPair(t, tc.opts...)
			payload := bytes.Repeat([]byte{7}, 300)
			var buf []byte
			cycle := func() {
				env, err := a.Shield("ab", 7, payload)
				if err != nil {
					t.Fatalf("Shield: %v", err)
				}
				buf = env.AppendTo(buf[:0])
				RecyclePayload(&env)
				var e Envelope
				if err := b.DecodeEnvelopeInto(&e, buf); err != nil {
					t.Fatalf("decode: %v", err)
				}
				_, got, err := b.Verify(e)
				if err != nil || len(got) != 1 || !bytes.Equal(got[0].Payload, payload) {
					t.Fatalf("Verify: %d delivered, %v", len(got), err)
				}
			}
			cycle() // warm the per-channel scratch buffers
			if n := testing.AllocsPerRun(200, cycle); n > tc.budget {
				t.Fatalf("hot path allocates %.1f per message, budget is %.0f", n, tc.budget)
			}
		})
	}
}

// TestShielderDecodeSharesChannelName: the receiver's decode yields the same
// envelope as the package-level one, with the open channel's own name string
// instead of a copy; an unknown channel's name is still copied.
func TestShielderDecodeSharesChannelName(t *testing.T) {
	a, b := newPair(t)
	env := mustShield(t, a, "ab", 1, []byte("x"))
	data := env.Encode()
	var plain, shared Envelope
	if err := DecodeEnvelopeInto(&plain, data); err != nil {
		t.Fatalf("DecodeEnvelopeInto: %v", err)
	}
	if err := b.DecodeEnvelopeInto(&shared, data); err != nil {
		t.Fatalf("Shielder.DecodeEnvelopeInto: %v", err)
	}
	if shared.Channel != plain.Channel || shared.Seq != plain.Seq ||
		!bytes.Equal(shared.Payload, plain.Payload) || !bytes.Equal(shared.MAC, plain.MAC) {
		t.Fatalf("decodes differ: %+v vs %+v", shared, plain)
	}
	if n := testing.AllocsPerRun(100, func() {
		var e Envelope
		_ = b.DecodeEnvelopeInto(&e, data)
	}); n != 0 {
		t.Errorf("decode on an open channel allocates %.1f, want 0", n)
	}

	b.CloseChannel("ab")
	var unknown Envelope
	if err := b.DecodeEnvelopeInto(&unknown, data); err != nil || unknown.Channel != "ab" {
		t.Fatalf("unknown channel: %q, %v", unknown.Channel, err)
	}
	if _, _, err := b.Verify(unknown); !errors.Is(err, ErrUnknownChannel) {
		t.Errorf("Verify on a closed channel: %v, want ErrUnknownChannel", err)
	}
}

// TestShieldAliasesPayload pins the buffer-ownership contract: in
// non-confidential mode Shield takes no copy — the envelope's payload IS the
// caller's buffer until the envelope is encoded.
func TestShieldAliasesPayload(t *testing.T) {
	a, _ := newPair(t)
	payload := []byte("aliased, not copied")
	env, err := a.Shield("ab", 1, payload)
	if err != nil {
		t.Fatalf("Shield: %v", err)
	}
	if len(env.Payload) == 0 || &env.Payload[0] != &payload[0] {
		t.Errorf("non-confidential Shield copied the payload; the ownership contract makes the copy unnecessary")
	}
}

// TestDecodeEnvelopeIntoAliases pins the zero-copy decode contract: payload
// and MAC alias the wire buffer.
func TestDecodeEnvelopeIntoAliases(t *testing.T) {
	a, _ := newPair(t)
	env, err := a.Shield("ab", 1, []byte("zero copy"))
	if err != nil {
		t.Fatalf("Shield: %v", err)
	}
	data := env.Encode()
	var e Envelope
	if err := DecodeEnvelopeInto(&e, data); err != nil {
		t.Fatalf("DecodeEnvelopeInto: %v", err)
	}
	if e.Channel != "ab" || !bytes.Equal(e.Payload, []byte("zero copy")) {
		t.Fatalf("decoded envelope mismatch: %+v", e)
	}
	// Mutating the wire buffer must show through the decoded payload (alias,
	// not copy).
	e.Payload[0] ^= 0xff
	if bytes.Contains(data, []byte("zero copy")) {
		t.Errorf("decoded payload is a copy; DecodeEnvelopeInto must alias the wire buffer")
	}
}

// TestEnvelopeEncodedSizeExact pins AppendTo's buffer sizing: EncodedSize
// must be the exact encoded length, or pooled buffers would regrow.
func TestEnvelopeEncodedSizeExact(t *testing.T) {
	e := Envelope{View: 9, Epoch: 3, Channel: "n1->n2", Group: 7, Seq: 42, Kind: 7,
		Enc: true, Batch: true, Payload: []byte{1, 2, 3}, MAC: bytes.Repeat([]byte{9}, 32)}
	if got, want := len(e.Encode()), e.EncodedSize(); got != want {
		t.Errorf("EncodedSize = %d, encoded length = %d", want, got)
	}
}

// TestFutureBufferByteBudget exercises the satellite bound: a channel's
// out-of-order buffer is limited by bytes as well as count, so a Byzantine
// peer cannot park maxFutureBuffer maximum-size payloads in the protected
// area. Drops surface in OverflowDrops.
func TestFutureBufferByteBudget(t *testing.T) {
	a, b := newPair(t)
	big := make([]byte, 1<<20)     // 1 MiB per envelope, budget is 4 MiB
	mustShield(t, a, "ab", 1, big) // seq 1: withheld, keeps the gap open
	buffered := 0
	var overflowAt int
	for i := 0; i < 8; i++ {
		env := mustShield(t, a, "ab", 1, big)
		_, _, err := b.Verify(env)
		switch {
		case err == nil:
			buffered++
		case errors.Is(err, ErrFutureOverflow):
			overflowAt = buffered
		default:
			t.Fatalf("Verify: %v", err)
		}
	}
	if overflowAt == 0 {
		t.Fatalf("byte budget never tripped: %d MiB-sized envelopes buffered", buffered)
	}
	if got := b.PendingFutureBytes("ab"); got > maxFutureBytes {
		t.Errorf("PendingFutureBytes = %d, budget %d", got, maxFutureBytes)
	}
	if b.OverflowDrops() == 0 {
		t.Errorf("overflow drops not counted")
	}
	// Draining (gap-skip: seq 1 was never sent to b) releases the budget...
	b.TickFutures(1)
	if got := b.PendingFutureBytes("ab"); got != 0 {
		t.Errorf("byte budget not released after drain: %d", got)
	}
	// ...after which small envelopes buffer normally again: the byte budget
	// tracks live parked bytes, it is not a cumulative ration.
	mustShield(t, a, "ab", 1, []byte("skipped")) // reopen a gap
	small := mustShield(t, a, "ab", 1, []byte("small"))
	if st, _, err := b.Verify(small); err != nil || st != Buffered {
		t.Errorf("small envelope after drain: status %v err %v", st, err)
	}
	if got := b.PendingFutureBytes("ab"); got != len("small") {
		t.Errorf("PendingFutureBytes = %d, want %d", got, len("small"))
	}
}

// TestChannelTableRace hammers the sharded channel table from every angle at
// once: seals, verifies, batch seals, channel opens/closes (reconfig
// pruning), view and epoch moves, and the observability getters. Run under
// -race this is the regression test for the per-channel locking scheme.
// Both modes run it: a confidential channel also opens into its scratch and
// parks plaintext copies.
func TestChannelTableRace(t *testing.T) {
	t.Run("integrity", func(t *testing.T) { channelTableRace(t) })
	t.Run("confidential", func(t *testing.T) { channelTableRace(t, WithConfidentiality()) })
}

func channelTableRace(t *testing.T, opts ...Option) {
	plat, err := tee.NewPlatform("race", tee.WithCostModel(tee.NativeCostModel()))
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	s := NewShielder(plat.NewEnclave([]byte("s")), opts...)
	v := NewShielder(plat.NewEnclave([]byte("v")), opts...)
	key := bytes.Repeat([]byte{7}, 32)
	channels := []string{"c0", "c1", "c2", "c3"}
	for _, cq := range channels {
		for _, sh := range []*Shielder{s, v} {
			if err := sh.OpenChannel(cq, key); err != nil {
				t.Fatalf("OpenChannel: %v", err)
			}
		}
	}
	const iters = 400
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		cq := channels[g]
		wg.Add(1)
		go func() { // sealer + verifier per channel
			defer wg.Done()
			for i := 0; i < iters; i++ {
				env, err := s.Shield(cq, 1, []byte("payload"))
				if err != nil {
					continue // channel transiently closed by the churn goroutine
				}
				_, _, _ = v.Verify(env)
			}
		}()
		wg.Add(1)
		go func() { // batch sealer per channel
			defer wg.Done()
			items := []BatchItem{{Kind: 1, Payload: []byte("a")}, {Kind: 2, Payload: []byte("b")}}
			for i := 0; i < iters; i++ {
				if env, err := s.ShieldBatch(cq, items); err == nil {
					_, _, _ = v.Verify(env)
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // reconfig pruning: close and reopen a churn channel
		defer wg.Done()
		for i := 0; i < iters; i++ {
			cq := channels[i%len(channels)]
			s.CloseChannel(cq)
			_ = s.OpenChannel(cq, key)
			_ = v.HasChannel(cq)
			_ = v.PendingFuture(cq)
			_ = v.LastDelivered(cq)
		}
	}()
	wg.Add(1)
	go func() { // view/epoch movement and tick pumping
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if i%50 == 0 {
				s.SetView(uint64(i/50) + 1)
				v.SetView(uint64(i/50) + 1)
			}
			v.SetEpoch(uint64(i))
			_ = v.TickFutures(3)
			_ = v.OverflowDrops()
			_ = s.Epoch()
			_ = s.View()
		}
	}()
	wg.Wait()
}

// TestSetViewAtomicWithSeals is the regression test for the contract that a
// view change's counter resets are atomic with in-flight seals: no envelope
// may carry the new view with a pre-reset (continuing) counter, so within
// every view each channel's sequence numbers are exactly 1..n with no gaps
// and no duplicates.
func TestSetViewAtomicWithSeals(t *testing.T) {
	plat, err := tee.NewPlatform("sv", tee.WithCostModel(tee.NativeCostModel()))
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	s := NewShielder(plat.NewEnclave([]byte("s")))
	key := bytes.Repeat([]byte{7}, 32)
	channels := []string{"x", "y"}
	for _, cq := range channels {
		if err := s.OpenChannel(cq, key); err != nil {
			t.Fatalf("OpenChannel: %v", err)
		}
	}
	type seal struct {
		view uint64
		cq   string
		seq  uint64
	}
	var mu sync.Mutex
	var seals []seal
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, cq := range channels {
		for w := 0; w < 2; w++ { // two concurrent sealers per channel
			cq := cq
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					env, err := s.Shield(cq, 1, nil)
					if err != nil {
						t.Errorf("Shield: %v", err)
						return
					}
					mu.Lock()
					seals = append(seals, seal{env.View, env.Channel, env.Seq})
					mu.Unlock()
				}
			}()
		}
	}
	for v := uint64(1); v <= 5; v++ {
		s.SetView(v)
	}
	stop.Store(true)
	wg.Wait()

	perView := make(map[string]map[uint64]int) // view/channel -> seq -> count
	for _, sl := range seals {
		k := fmt.Sprintf("%d/%s", sl.view, sl.cq)
		if perView[k] == nil {
			perView[k] = make(map[uint64]int)
		}
		perView[k][sl.seq]++
	}
	for k, seqs := range perView {
		for seq, count := range seqs {
			if count != 1 {
				t.Fatalf("%s: seq %d sealed %d times — view reset raced a seal", k, seq, count)
			}
		}
		// Contiguity: seqs are exactly 1..len(seqs).
		for i := 1; i <= len(seqs); i++ {
			if seqs[uint64(i)] != 1 {
				t.Fatalf("%s: %d seals but seq %d missing — counter reset tore", k, len(seqs), i)
			}
		}
	}
}

// TestVerifyDeliveredReuseContract documents that Verify's returned slice is
// only valid until the next Verify on the same channel (the zero-alloc
// delivery scratch): a caller that consumes synchronously — as the node's
// event loop does — always sees consistent envelopes.
func TestVerifyDeliveredReuseContract(t *testing.T) {
	a, b := newPair(t)
	e1 := mustShield(t, a, "ab", 1, []byte("first"))
	e2 := mustShield(t, a, "ab", 2, []byte("second"))
	_, d1, err := b.Verify(e1)
	if err != nil || len(d1) != 1 || string(d1[0].Payload) != "first" {
		t.Fatalf("first delivery: %v %v", d1, err)
	}
	payload := string(d1[0].Payload) // consumed synchronously
	_, d2, err := b.Verify(e2)
	if err != nil || len(d2) != 1 || string(d2[0].Payload) != "second" {
		t.Fatalf("second delivery: %v %v", d2, err)
	}
	if payload != "first" {
		t.Fatalf("synchronous consumption broke: %q", payload)
	}
}
