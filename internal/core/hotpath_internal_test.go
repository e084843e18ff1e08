package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"recipe/internal/attest"
	"recipe/internal/authn"
	"recipe/internal/kvstore"
	"recipe/internal/netstack"
	"recipe/internal/tee"
)

// testEnclave returns an enclave on a platform that charges no modelled
// hardware cost.
func testEnclave(t *testing.T, id string) *tee.Enclave {
	t.Helper()
	plat, err := tee.NewPlatform("core-test", tee.WithCostModel(tee.NativeCostModel()))
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	return plat.NewEnclave([]byte(id))
}

// nameTestNode builds the parts of a node that name, open and publish
// channels and status, without a transport or event loop.
func nameTestNode(t *testing.T, proto Protocol) *Node {
	t.Helper()
	return &Node{
		cfg:        NodeConfig{Secrets: attest.Secrets{MasterKey: bytes.Repeat([]byte{1}, 32)}},
		id:         "n1",
		shielder:   authn.NewShielder(testEnclave(t, "n1")),
		proto:      proto,
		inc:        map[string]uint64{},
		sendNames:  map[string]chanName{},
		replyNames: map[string]chanName{},
	}
}

// TestChannelNamesAllocFree: once a peer's or client's channel is named and
// open, naming it again for the next send costs nothing.
func TestChannelNamesAllocFree(t *testing.T) {
	n := nameTestNode(t, nil)
	n.sendChannel("n2")
	n.replyChannel("c1")
	if a := testing.AllocsPerRun(200, func() { n.sendChannel("n2") }); a != 0 {
		t.Errorf("sendChannel allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { n.replyChannel("c1") }); a != 0 {
		t.Errorf("replyChannel allocates %.1f per call, want 0", a)
	}
}

// TestChannelNamesFollowIncarnations: the cached names are the current
// incarnations' — after a peer's bumpInc and after the node's own
// re-incarnation — so a recovered peer or node is never addressed on its
// dead channel.
func TestChannelNamesFollowIncarnations(t *testing.T) {
	n := nameTestNode(t, nil)
	check := func(wantSend, wantReply string) {
		t.Helper()
		if got := n.sendChannel("n2"); got != wantSend || got != n.peerChannel("n1", "n2") {
			t.Errorf("sendChannel = %q, want %q (peerChannel %q)", got, wantSend, n.peerChannel("n1", "n2"))
		}
		if !n.shielder.HasChannel(wantSend) {
			t.Errorf("send channel %q not opened", wantSend)
		}
		if got := n.replyChannel("c1"); got != wantReply || got != replyChannelName("n1", n.incOf("n1"), "c1") {
			t.Errorf("replyChannel = %q, want %q", got, wantReply)
		}
	}
	check("ch:n1@1->n2@1", "cli:n1->c1")
	n.bumpInc("n2", 3)
	check("ch:n1@1->n2@3", "cli:n1->c1")
	n.bumpInc("n1", 2)
	check("ch:n1@2->n2@3", "cli:n1@2->c1")
}

// TestChannelNameCacheBounded: a stream of distinct clients cannot grow the
// reply-name cache without end.
func TestChannelNameCacheBounded(t *testing.T) {
	n := nameTestNode(t, nil)
	for i := 0; i < 3*maxCachedNames; i++ {
		if got, want := n.replyChannel(fmt.Sprint("c", i)), fmt.Sprint("cli:n1->c", i); got != want {
			t.Fatalf("replyChannel = %q, want %q", got, want)
		}
	}
	if len(n.replyNames) > maxCachedNames {
		t.Fatalf("reply-name cache holds %d names, bound %d", len(n.replyNames), maxCachedNames)
	}
}

// statusProto is a protocol whose Status the test sets directly.
type statusProto struct {
	Protocol
	st Status
}

func (p *statusProto) Status() Status { return p.st }

// TestPublishStatusUnchangedAllocFree: an iteration that leaves the status
// as it was publishes nothing new and allocates nothing; a change is
// published.
func TestPublishStatusUnchangedAllocFree(t *testing.T) {
	p := &statusProto{st: Status{Leader: "n1", IsCoordinator: true, Term: 4}}
	n := nameTestNode(t, p)
	n.publishStatus()
	first := n.status.Load()
	if a := testing.AllocsPerRun(200, n.publishStatus); a != 0 {
		t.Errorf("unchanged publishStatus allocates %.1f, want 0", a)
	}
	if n.status.Load() != first {
		t.Errorf("unchanged status was republished")
	}
	p.st = Status{Leader: "n2", Term: 5}
	n.publishStatus()
	if got := n.Status(); got != p.st {
		t.Errorf("Status = %+v after a change, want %+v", got, p.st)
	}
}

// clientPut is the wire message of one client put.
func clientPut(seq uint64) *Wire {
	return &Wire{Kind: KindClientReq, From: "client-7", Group: 1, Epoch: 2,
		Cmd: &Command{Op: OpPut, Key: "user:42", Value: bytes.Repeat([]byte{5}, 256),
			ClientID: "client-7", ClientAddr: "client-7/addr", Seq: seq}}
}

// TestInternedDecodeAllocs: with a warm table, decoding a client put
// allocates only what carries data or must outlive the packet — the Wire,
// its Command, the key and the value — and yields the same message as
// DecodeWire.
func TestInternedDecodeAllocs(t *testing.T) {
	data := clientPut(9).Encode()
	var names interner
	w, err := decodeWire(data, &names)
	if err != nil {
		t.Fatalf("decodeWire: %v", err)
	}
	plain, _ := DecodeWire(data)
	if !reflect.DeepEqual(w, plain) {
		t.Fatalf("interned decode %+v differs from DecodeWire %+v", w, plain)
	}
	if a := testing.AllocsPerRun(200, func() { _, _ = decodeWire(data, &names) }); a != 4 {
		t.Errorf("interned client-put decode allocates %.1f, want 4 (Wire, Cmd, Key, Value)", a)
	}
	// Keys and values never alias the packet: rewriting it leaves them be.
	data[len(data)-60] ^= 0xff
	if !bytes.Equal(w.Cmd.Value, plain.Cmd.Value) {
		t.Errorf("decoded value aliases the packet buffer")
	}
}

// TestInternerBounded: a stream of distinct names keeps the table within
// its bound, and every name still comes back equal to its bytes.
func TestInternerBounded(t *testing.T) {
	var names interner
	for i := 0; i < 5*maxInterned; i++ {
		b := []byte(fmt.Sprint("principal-", i))
		if got := names.intern(b); got != string(b) {
			t.Fatalf("intern(%q) = %q", b, got)
		}
		if len(names.names) > maxInterned {
			t.Fatalf("interner holds %d names, bound %d", len(names.names), maxInterned)
		}
	}
}

// crashTransport answers every client request itself: member "a" with the
// given failure text, every other member with success.
type crashTransport struct {
	inbox chan netstack.Packet
	fail  string
	sent  []string
}

func (f *crashTransport) Addr() string                  { return "client" }
func (f *crashTransport) Inbox() <-chan netstack.Packet { return f.inbox }
func (f *crashTransport) Close() error                  { return nil }

func (f *crashTransport) Send(to string, data []byte) error {
	req, err := DecodeWire(data)
	if err != nil || req.Cmd == nil {
		return err
	}
	f.sent = append(f.sent, to)
	res := Result{OK: true}
	if to == "a" {
		res = Result{Err: f.fail}
	}
	resp := &Wire{Kind: KindClientResp, From: to, Group: req.Group, Index: req.Cmd.Seq, Res: &res}
	f.inbox <- netstack.Packet{From: to, To: "client", Data: resp.Encode()}
	return nil
}

// TestClientRetriesReplicaFailure: a replica answering with its own failure
// (a crashed enclave, an ABD quorum timeout) is a failed try — the client
// moves to the next member and the op completes there — while an
// application error is the op's result.
func TestClientRetriesReplicaFailure(t *testing.T) {
	for _, fail := range []string{
		tee.ErrEnclaveCrashed.Error(),
		ErrQuorumTimeout.Error(),
	} {
		tr := &crashTransport{inbox: make(chan netstack.Packet, 4), fail: fail}
		c, err := NewClient(testEnclave(t, "client"), tr,
			ClientConfig{ID: "client", Nodes: []string{"a", "b"}, RequestTimeout: 8 * time.Millisecond})
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		c.coord[0] = "a"
		res, err := c.Put("k", []byte("v"))
		if err != nil || !res.OK {
			t.Fatalf("%q: Put = %+v, %v; want success at b", fail, res, err)
		}
		if want := []string{"a", "b"}; !reflect.DeepEqual(tr.sent, want) {
			t.Errorf("%q: tried %v, want %v", fail, tr.sent, want)
		}
	}

	tr := &crashTransport{inbox: make(chan netstack.Packet, 4), fail: kvstore.ErrNotFound.Error() + `: "k"`}
	c, err := NewClient(testEnclave(t, "client"), tr,
		ClientConfig{ID: "client", Nodes: []string{"a", "b"}, RequestTimeout: 8 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	c.coord[0] = "a"
	res, err := c.Get("k")
	if err != nil || res.OK || res.Err != tr.fail || len(tr.sent) != 1 {
		t.Fatalf("application error: Get = %+v, %v after %v; want the error from a", res, err, tr.sent)
	}
}
