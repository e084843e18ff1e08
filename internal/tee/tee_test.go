package tee

import (
	"bytes"
	"testing"
	"time"
)

func newTestPlatform(t *testing.T, name string) *Platform {
	t.Helper()
	p, err := NewPlatform(name, WithCostModel(NativeCostModel()))
	if err != nil {
		t.Fatalf("NewPlatform(%s): %v", name, err)
	}
	return p
}

func TestMeasurementDeterministic(t *testing.T) {
	a := MeasureCode([]byte("protocol-v1"))
	b := MeasureCode([]byte("protocol-v1"))
	c := MeasureCode([]byte("protocol-v2"))
	if a != b {
		t.Errorf("same code produced different measurements: %v vs %v", a, b)
	}
	if a == c {
		t.Errorf("different code produced identical measurements")
	}
}

func TestQuoteVerification(t *testing.T) {
	p := newTestPlatform(t, "p1")
	e := p.NewEnclave([]byte("code"))
	q, err := e.GenerateQuote([]byte("nonce-123"))
	if err != nil {
		t.Fatalf("GenerateQuote: %v", err)
	}
	if err := VerifyQuote(p.QuotePublicKey(), q); err != nil {
		t.Errorf("valid quote rejected: %v", err)
	}
	if got := q.Report.ReportData[:9]; !bytes.Equal(got, []byte("nonce-123")) {
		t.Errorf("report data = %q, want nonce-123 prefix", got)
	}
}

func TestQuoteRejectedByOtherPlatform(t *testing.T) {
	p1 := newTestPlatform(t, "p1")
	p2 := newTestPlatform(t, "p2")
	e := p1.NewEnclave([]byte("code"))
	q, err := e.GenerateQuote(nil)
	if err != nil {
		t.Fatalf("GenerateQuote: %v", err)
	}
	if err := VerifyQuote(p2.QuotePublicKey(), q); err == nil {
		t.Errorf("quote from p1 verified under p2's key")
	}
}

func TestQuoteTamperDetected(t *testing.T) {
	p := newTestPlatform(t, "p1")
	e := p.NewEnclave([]byte("code"))
	q, err := e.GenerateQuote([]byte("n"))
	if err != nil {
		t.Fatalf("GenerateQuote: %v", err)
	}
	q.Report.ReportData[0] ^= 0xff
	if err := VerifyQuote(p.QuotePublicKey(), q); err == nil {
		t.Errorf("tampered quote verified")
	}
}

func TestDeriveKeyBoundToMeasurement(t *testing.T) {
	p := newTestPlatform(t, "p1")
	e1 := p.NewEnclave([]byte("code-A"))
	e2 := p.NewEnclave([]byte("code-A"))
	e3 := p.NewEnclave([]byte("code-B"))

	k1, err := e1.DeriveKey("net")
	if err != nil {
		t.Fatalf("DeriveKey: %v", err)
	}
	k2, _ := e2.DeriveKey("net")
	k3, _ := e3.DeriveKey("net")
	k4, _ := e1.DeriveKey("seal")
	if !bytes.Equal(k1, k2) {
		t.Errorf("same measurement derived different keys")
	}
	if bytes.Equal(k1, k3) {
		t.Errorf("different measurement derived same key")
	}
	if bytes.Equal(k1, k4) {
		t.Errorf("different labels derived same key")
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	p := newTestPlatform(t, "p1")
	e := p.NewEnclave([]byte("code"))
	secret := []byte("replication signing key material")
	sealed, err := e.Seal(secret)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if bytes.Contains(sealed, secret) {
		t.Errorf("sealed blob contains plaintext")
	}
	got, err := e.Unseal(sealed)
	if err != nil {
		t.Fatalf("Unseal: %v", err)
	}
	if !bytes.Equal(got, secret) {
		t.Errorf("Unseal = %q, want %q", got, secret)
	}
}

func TestUnsealWrongEnclaveFails(t *testing.T) {
	p := newTestPlatform(t, "p1")
	e1 := p.NewEnclave([]byte("code-A"))
	e2 := p.NewEnclave([]byte("code-B"))
	sealed, err := e1.Seal([]byte("secret"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := e2.Unseal(sealed); err == nil {
		t.Errorf("enclave with different measurement unsealed the blob")
	}
}

func TestCrashedEnclaveRefusesEverything(t *testing.T) {
	p := newTestPlatform(t, "p1")
	e := p.NewEnclave([]byte("code"))
	e.Crash()
	if !e.Crashed() {
		t.Fatalf("Crashed() = false after Crash()")
	}
	if _, err := e.Attest(nil); err != ErrEnclaveCrashed {
		t.Errorf("Attest after crash: err = %v, want ErrEnclaveCrashed", err)
	}
	if _, err := e.Seal(nil); err != ErrEnclaveCrashed {
		t.Errorf("Seal after crash: err = %v, want ErrEnclaveCrashed", err)
	}
	if _, err := e.CounterIncrement("c"); err != ErrEnclaveCrashed {
		t.Errorf("CounterIncrement after crash: err = %v, want ErrEnclaveCrashed", err)
	}
}

func TestMonotonicCounters(t *testing.T) {
	p := newTestPlatform(t, "p1")
	e := p.NewEnclave([]byte("code"))
	var prev uint64
	for i := 0; i < 100; i++ {
		v, err := e.CounterIncrement("cq-1")
		if err != nil {
			t.Fatalf("CounterIncrement: %v", err)
		}
		if v <= prev {
			t.Fatalf("counter not monotonic: %d after %d", v, prev)
		}
		prev = v
	}
	if v, _ := e.CounterRead("cq-1"); v != 100 {
		t.Errorf("CounterRead = %d, want 100", v)
	}
	if v, _ := e.CounterRead("cq-2"); v != 0 {
		t.Errorf("independent counter = %d, want 0", v)
	}
}

func TestCounterConcurrentIncrements(t *testing.T) {
	p := newTestPlatform(t, "p1")
	e := p.NewEnclave([]byte("code"))
	const workers, each = 8, 250
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < each; i++ {
				if _, err := e.CounterIncrement("shared"); err != nil {
					t.Errorf("CounterIncrement: %v", err)
					return
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if v, _ := e.CounterRead("shared"); v != workers*each {
		t.Errorf("counter = %d, want %d", v, workers*each)
	}
}

func TestLeaseMutualExclusion(t *testing.T) {
	clk := NewFakeClock(time.Unix(1000, 0))
	lt := NewLeaseTable(clk, 0.1)

	l, err := lt.Grant("leader", "n1", time.Second)
	if err != nil {
		t.Fatalf("Grant: %v", err)
	}
	if l.Epoch != 1 {
		t.Errorf("first epoch = %d, want 1", l.Epoch)
	}
	if _, err := lt.Grant("leader", "n2", time.Second); err != ErrLeaseHeld {
		t.Errorf("overlapping grant err = %v, want ErrLeaseHeld", err)
	}

	// Holder-side expiry happens at 1s; grantor-side only at 1.1s. In the
	// window between, neither the holder may act nor a new grant succeed.
	clk.Advance(1050 * time.Millisecond)
	if lt.HolderActive("leader", "n1") {
		t.Errorf("holder still active past holder expiry")
	}
	if _, err := lt.Grant("leader", "n2", time.Second); err != ErrLeaseHeld {
		t.Errorf("grant inside drift margin err = %v, want ErrLeaseHeld", err)
	}

	clk.Advance(100 * time.Millisecond)
	l2, err := lt.Grant("leader", "n2", time.Second)
	if err != nil {
		t.Fatalf("grant after grantor expiry: %v", err)
	}
	if l2.Epoch != 2 {
		t.Errorf("epoch after re-grant = %d, want 2", l2.Epoch)
	}
}

func TestLeaseRenew(t *testing.T) {
	clk := NewFakeClock(time.Unix(1000, 0))
	lt := NewLeaseTable(clk, 0.1)
	if _, err := lt.Grant("leader", "n1", time.Second); err != nil {
		t.Fatalf("Grant: %v", err)
	}
	clk.Advance(900 * time.Millisecond)
	l, err := lt.Renew("leader", "n1", time.Second)
	if err != nil {
		t.Fatalf("Renew: %v", err)
	}
	if l.Epoch != 1 {
		t.Errorf("renewal changed epoch to %d", l.Epoch)
	}
	clk.Advance(800 * time.Millisecond)
	if !lt.HolderActive("leader", "n1") {
		t.Errorf("lease inactive after renewal")
	}
	clk.Advance(300 * time.Millisecond)
	if _, err := lt.Renew("leader", "n1", time.Second); err != ErrLeaseExpired {
		t.Errorf("renew after expiry err = %v, want ErrLeaseExpired", err)
	}
	if _, err := lt.Renew("leader", "n2", time.Second); err != ErrNotHolder {
		t.Errorf("renew by non-holder err = %v, want ErrNotHolder", err)
	}
}

func TestCostModelZero(t *testing.T) {
	if !NativeCostModel().Zero() {
		t.Errorf("NativeCostModel().Zero() = false")
	}
	if DefaultCostModel().Zero() {
		t.Errorf("DefaultCostModel().Zero() = true")
	}
	// Charging must not panic and must do bounded work.
	DefaultCostModel().ChargeTransition()
	DefaultCostModel().ChargeEPC(100<<20, 4096)
	NativeCostModel().ChargeTransition()
}

func TestChargeResidentTracksWorkingSet(t *testing.T) {
	p := newTestPlatform(t, "p1")
	e := p.NewEnclave([]byte("code"))
	e.ChargeResident(4096)
	e.ChargeResident(1024)
	e.ChargeResident(-96)
	if got := e.ResidentBytes(); got != 5024 {
		t.Errorf("ResidentBytes = %d, want 5024", got)
	}
}

// TestLeaseGrantRenewalAllocFree: a renewal — every verified message from
// the current leader — updates the lease state in place, and the epoch and
// expiry rules still hold.
func TestLeaseGrantRenewalAllocFree(t *testing.T) {
	clk := NewFakeClock(time.Unix(1000, 0))
	lt := NewLeaseTable(clk, 0.1)
	if _, err := lt.Grant("leader", "n1", time.Second); err != nil {
		t.Fatalf("Grant: %v", err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := lt.Grant("leader", "n1", time.Second); err != nil {
			t.Fatalf("renewal: %v", err)
		}
	}); n != 0 {
		t.Fatalf("lease renewal allocates %.1f times, want 0", n)
	}
	clk.Advance(500 * time.Millisecond)
	if l, err := lt.Grant("leader", "n1", time.Second); err != nil || l.Epoch != 1 {
		t.Fatalf("renewal = %+v, %v; want epoch 1", l, err)
	}
	clk.Advance(time.Second) // holder-side expired, grantor margin still open
	if lt.HolderActive("leader", "n1") {
		t.Fatalf("holder still active past its duration")
	}
	if _, err := lt.Grant("leader", "n2", time.Second); err != ErrLeaseHeld {
		t.Fatalf("grant inside the drift margin: %v, want ErrLeaseHeld", err)
	}
	clk.Advance(200 * time.Millisecond)
	if l, err := lt.Grant("leader", "n2", time.Second); err != nil || l.Epoch != 2 || l.Holder != "n2" {
		t.Fatalf("takeover = %+v, %v; want n2 at epoch 2", l, err)
	}
}
