package core

import (
	"encoding/binary"
	"reflect"
	"testing"

	"recipe/internal/kvstore"
)

// fuzzSeeds covers every flag/field combination of the wire format: bare
// messages, each optional section alone, and all of them together.
func fuzzSeeds() [][]byte {
	cmd := Command{Op: OpPut, Key: "k", Value: []byte("v"), ClientID: "c", ClientAddr: "addr", Seq: 9}
	res := Result{OK: true, Err: "e", Value: []byte("rv"), Version: kvstore.Version{TS: 3, Writer: 1}}
	wires := []*Wire{
		{},
		{Kind: KindClientReq, Cmd: &cmd},
		{Kind: KindClientResp, Index: 4, Res: &res},
		{Kind: KindRedirect, Key: "n2"},
		{Kind: KindStateResp, OK: true, Value: []byte("page")},
		{Kind: KindProtocolBase, From: "n1", Term: 2, Index: 10, Commit: 8,
			TS: kvstore.Version{TS: 7, Writer: 2}, OK: true,
			Cmds: []Command{cmd, {Op: OpGet, Key: "q"}}},
		{Kind: KindProtocolBase + 1, From: "n3", Key: "k", Value: []byte("vv"),
			Cmd: &cmd, Cmds: []Command{cmd}, Res: &res},
	}
	seeds := make([][]byte, 0, len(wires)+1)
	for _, w := range wires {
		seeds = append(seeds, w.Encode())
	}
	// The PR-1 prealloc bug: a tiny packet whose Cmds count claims 1<<20
	// entries used to allocate ~90 MB before failing to decode.
	hostile := (&Wire{}).Encode()
	binary.BigEndian.PutUint32(hostile[len(hostile)-4:], 1<<20)
	seeds = append(seeds, hostile)
	return seeds
}

// FuzzDecodeWire also runs the node's interning decoder, with one table
// kept warm across inputs, and requires the same verdict and message.
func FuzzDecodeWire(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	var names interner
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := DecodeWire(data)
		iw, ierr := decodeWire(data, &names)
		if (err == nil) != (ierr == nil) || !reflect.DeepEqual(w, iw) {
			t.Fatalf("interning decode differs:\n plain    %+v, %v\n interned %+v, %v", w, err, iw, ierr)
		}
		if err != nil {
			return
		}
		// The codec is canonical: a successfully decoded message re-encodes
		// to the exact input bytes.
		enc := w.Encode()
		if string(enc) != string(data) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data, enc)
		}
	})
}

// TestDecodeWireHostileCmdCount is the non-fuzz regression for the bounded
// preallocation: the hostile count must be rejected without allocating.
func TestDecodeWireHostileCmdCount(t *testing.T) {
	pkt := (&Wire{}).Encode()
	binary.BigEndian.PutUint32(pkt[len(pkt)-4:], 1<<20)
	before := testing.AllocsPerRun(10, func() {
		if _, err := DecodeWire(pkt); err == nil {
			t.Errorf("hostile count decoded")
		}
	})
	// A handful of small allocations (error wrapping) are fine; a ~90 MB
	// slice is not. AllocsPerRun counts allocations, so guard the count and
	// separately ensure the decode fails fast.
	if before > 16 {
		t.Errorf("hostile decode made %v allocations", before)
	}
	// Oversized beyond the hard cap still reports ErrWireOversized.
	binary.BigEndian.PutUint32(pkt[len(pkt)-4:], 1<<21)
	if _, err := DecodeWire(pkt); err == nil {
		t.Errorf("oversized count decoded")
	}
}

// TestDecodeStatePageHostileCount mirrors the same bound for state pages.
func TestDecodeStatePageHostileCount(t *testing.T) {
	pkt := encodeStatePage(nil, "", true, nil)
	binary.BigEndian.PutUint32(pkt[:4], 1<<20)
	if _, _, _, _, err := decodeStatePage(pkt); err == nil {
		t.Errorf("hostile state-page count decoded")
	}
}
