package netstack

import "recipe/internal/tee"

// StackKind names the five network stacks compared in Fig 6b.
type StackKind int

// The compared stacks.
const (
	// StackKernelNet is conventional kernel sockets.
	StackKernelNet StackKind = iota + 1
	// StackDirectIO is kernel-bypass networking (RDMA/DPDK).
	StackDirectIO
	// StackKernelNetTEE is kernel sockets from inside a TEE (syscalls are
	// expensive world switches).
	StackKernelNetTEE
	// StackDirectIOTEE is kernel-bypass from inside a TEE.
	StackDirectIOTEE
	// StackRecipeLib is Recipe's shielded direct-I/O stack: direct I/O in a
	// TEE plus the authentication/non-equivocation layer.
	StackRecipeLib
	// StackLegacyRPC models the heavyweight managed-runtime RPC stack of the
	// BFT-smart baseline: kernel sockets plus object serialization and
	// copy-heavy framing. It is not one of Fig 6b's five stacks; it is what
	// the PBFT comparator actually pays per message in the paper's setup.
	StackLegacyRPC
)

// String returns the stack's display name as used in Fig 6b.
func (k StackKind) String() string {
	switch k {
	case StackKernelNet:
		return "kernel-net"
	case StackDirectIO:
		return "direct I/O"
	case StackKernelNetTEE:
		return "kernel-net (TEEs)"
	case StackDirectIOTEE:
		return "direct I/O (TEEs)"
	case StackRecipeLib:
		return "Recipe-lib (net)"
	case StackLegacyRPC:
		return "legacy-rpc (BFT-smart)"
	default:
		return "unknown"
	}
}

// StackModel is the per-message cost model of one network stack. Costs are
// real CPU work (SHA-256 compressions) so benchmarks measure genuine
// throughput differences:
//
//   - kernel stacks pay per-packet syscall and copy overhead;
//   - TEE variants multiply that with enclave-transition and buffer
//     re-encryption costs (SCONE-style shield layer);
//   - direct I/O has minimal per-packet cost, native or in-TEE, because the
//     NIC DMAs into (untrusted) host memory mapped into the enclave.
type StackModel struct {
	Kind StackKind
	// BaseUnits is charged once per message (fixed per-packet path length).
	BaseUnits int
	// PerKBUnits is charged per KiB of payload (copies, (re-)encryption).
	PerKBUnits int
}

// Stacks holds the calibrated models. Relative magnitudes follow Fig 6b:
// native direct I/O fastest; native kernel-net next; TEE variants 4-8x below
// their native counterparts; recipe-lib ~1.66x faster than kernel-net-in-TEE.
var Stacks = map[StackKind]StackModel{
	StackKernelNet:    {Kind: StackKernelNet, BaseUnits: 18, PerKBUnits: 4},
	StackDirectIO:     {Kind: StackDirectIO, BaseUnits: 2, PerKBUnits: 1},
	StackKernelNetTEE: {Kind: StackKernelNetTEE, BaseUnits: 90, PerKBUnits: 26},
	StackDirectIOTEE:  {Kind: StackDirectIOTEE, BaseUnits: 30, PerKBUnits: 12},
	StackRecipeLib:    {Kind: StackRecipeLib, BaseUnits: 48, PerKBUnits: 16},
	StackLegacyRPC:    {Kind: StackLegacyRPC, BaseUnits: 220, PerKBUnits: 40},
}

// Charge performs the stack's per-message work for a payload of n bytes.
func (m StackModel) Charge(n int) {
	kb := (n + 1023) / 1024
	tee.Burn(m.BaseUnits + kb*m.PerKBUnits)
}
