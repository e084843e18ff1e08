package tee

import (
	"crypto/sha256"
	"sync/atomic"
)

// CostModel reproduces the performance asymmetries of real trusted hardware
// by performing genuine CPU work (SHA-256 churn) rather than sleeping, so
// that Go benchmarks measure real relative shapes:
//
//   - enclave transitions (ECALL/OCALL world switches) cost on the order of
//     microseconds on SGX; exit-less runtimes like SCONE amortise but do not
//     eliminate them;
//   - once the enclave working set exceeds the EPC, every additional page is
//     encrypted/integrity-checked on eviction and reload, which is what makes
//     large values slow in Fig 3.
//
// A zero CostModel charges nothing (the "native" configuration).
type CostModel struct {
	// TransitionUnits is the work charged per enclave boundary crossing.
	// One unit is one SHA-256 compression of a 64-byte block (~50-150ns).
	TransitionUnits int
	// EPCLimitBytes models the usable Enclave Page Cache. Growth beyond the
	// limit charges paging work proportional to the bytes added.
	EPCLimitBytes int64
	// PagingUnitsPerKB is the work charged per KiB added while over the EPC
	// limit.
	PagingUnitsPerKB int
	// ConfBaseUnits and ConfPerKBUnits model confidential mode: every byte
	// leaving the enclave (message payloads, stored values) is encrypted
	// and copied through a staging buffer, which on SGX roughly doubles the
	// per-operation cost (Fig 5).
	ConfBaseUnits  int
	ConfPerKBUnits int
}

// DefaultCostModel returns the calibrated SGX-like model used by the
// simulated platform. The constants were chosen so that the transformed
// protocols land in the paper's reported 2-15x slowdown band relative to
// native execution (Fig 6a) on a contemporary CPU.
func DefaultCostModel() CostModel {
	return CostModel{
		TransitionUnits:  12,
		EPCLimitBytes:    8 << 20, // 8 MiB of modelled EPC for protocol state
		PagingUnitsPerKB: 24,
		ConfBaseUnits:    20,
		ConfPerKBUnits:   10,
	}
}

// NativeCostModel returns a model that charges nothing, used for the native
// (no-TEE) baselines in Fig 6a and Fig 6b.
func NativeCostModel() CostModel { return CostModel{} }

// ChargeTransition performs the work of one enclave world switch.
func (c CostModel) ChargeTransition() { Burn(c.TransitionUnits) }

// ChargeEPC performs paging work for adding delta bytes when the working set
// (resident) is above the modelled EPC limit.
func (c CostModel) ChargeEPC(resident int64, delta int) {
	if c.PagingUnitsPerKB == 0 || resident <= c.EPCLimitBytes {
		return
	}
	kb := (delta + 1023) / 1024
	Burn(kb * c.PagingUnitsPerKB)
}

// ChargeConfidential performs the staging/encryption work of moving n bytes
// across the enclave boundary in confidential mode.
func (c CostModel) ChargeConfidential(n int) {
	if c.ConfBaseUnits == 0 && c.ConfPerKBUnits == 0 {
		return
	}
	kb := (n + 1023) / 1024
	Burn(c.ConfBaseUnits + kb*c.ConfPerKBUnits)
}

// Zero reports whether the model charges no costs at all.
func (c CostModel) Zero() bool {
	return c.TransitionUnits == 0 && c.PagingUnitsPerKB == 0
}

var burnBlock [64]byte

// Burn performs n SHA-256 compressions — the unit of simulated hardware work
// every cost model charges (this one and netstack's stack models). The
// result feeds back into the input block so the compiler cannot elide the
// loop.
func Burn(n int) {
	if n <= 0 {
		return
	}
	b := burnBlock
	for i := 0; i < n; i++ {
		s := sha256.Sum256(b[:])
		copy(b[:], s[:])
	}
	burnSink.Store(uint32(b[0]))
}

// burnSink defeats dead-code elimination of Burn's work; atomic because
// every node's event loop burns concurrently.
var burnSink atomic.Uint32
