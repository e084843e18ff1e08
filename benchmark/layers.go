package main

import (
	"crypto/ed25519"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"recipe/internal/attest"
	"recipe/internal/authn"
	"recipe/internal/bufpool"
	"recipe/internal/core"
	"recipe/internal/kvstore"
	"recipe/internal/netstack"
	"recipe/internal/protocols/abd"
	"recipe/internal/protocols/raft"
	"recipe/internal/reconfig"
	"recipe/internal/seal"
	"recipe/internal/tee"
	"recipe/internal/workload"
)

// replayOps is how many operations of the generated stream each layer
// replays, one span per call.
const replayOps = 2000

// batchSize is the batch the batching paths are replayed at.
const batchSize = 16

// layerInputs is what the layer replays need from the traced run: the same
// generated op stream, and the cluster's signed shard map.
type layerInputs struct {
	def       *workloadDef
	gen       *workload.Generator
	ops       []opSpec
	keys      []string
	value     []byte
	signedMap []byte
	mapKey    ed25519.PublicKey
	workDir   string
}

// costModels returns the TEE and network-stack cost models harness.New picks
// for the workload's cluster.
func costModels(def *workloadDef) (tee.CostModel, netstack.StackModel) {
	if def.cluster.Shielded {
		return tee.DefaultCostModel(), netstack.Stacks[netstack.StackRecipeLib]
	}
	return tee.NativeCostModel(), netstack.Stacks[netstack.StackDirectIO]
}

// replayLayers is Part B of the traced pass: the op stream goes through each
// layer alone, by calls into the layer's public functions, and every call is
// a span. It fills m with the per-layer metrics that need no cluster.
func replayLayers(t *tracer, in layerInputs, m map[string]float64) error {
	n := len(in.ops)
	costs, stack := costModels(in.def)
	plat, err := tee.NewPlatform("replay", tee.WithCostModel(costs))
	if err != nil {
		return err
	}

	// workload: drawing the next operation.
	gen := in.gen.Derive(1)
	m["workload.next_ns"] = t.replay("workload.next", n, func(int) { gen.Next() }).ns

	// core.wire: every op as the client request that carries it.
	wires := make([]*core.Wire, n)
	msgs := make([][]byte, n)
	msgBytes := 0
	for i, op := range in.ops {
		cmd := &core.Command{Op: core.OpPut, Key: in.keys[op.key], Value: in.value, ClientID: "client-1", ClientAddr: "addr:client-1", Seq: uint64(i + 1)}
		if op.read {
			cmd.Op, cmd.Value = core.OpGet, nil
		}
		wires[i] = &core.Wire{Kind: core.KindClientReq, From: "client-1", Epoch: 1, Cmd: cmd}
		msgs[i] = wires[i].Encode()
		msgBytes += len(msgs[i])
	}
	enc := t.replay("core.wire.encode", n, func(i int) {
		bufpool.Put(wires[i].AppendTo(bufpool.Get(wires[i].EncodedSize())))
	})
	var decErr error
	dec := t.replay("core.wire.decode", n, func(i int) {
		if _, err := core.DecodeWire(msgs[i]); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return fmt.Errorf("core.wire replay: %w", decErr)
	}
	m["core.wire.encode_ns"], m["core.wire.decode_ns"] = enc.ns, dec.ns
	m["core.wire.allocs_per_msg"] = enc.allocs + dec.allocs
	m["core.wire.bytes_per_msg"] = float64(msgBytes) / float64(n)

	if err := replayAuthn(t, in, plat, msgs, m); err != nil {
		return err
	}

	// tee: the simulated-hardware floor.
	enclave := plat.NewEnclave([]byte("replay"))
	m["tee.transition_ns"] = t.replay("tee.transition", n, func(int) { enclave.ChargeTransition() }).ns
	m["tee.conf_charge_ns"] = t.replay("tee.conf_charge", n, func(int) { enclave.ChargeConfidential(len(in.value)) }).ns

	if err := replayNetstack(t, stack, msgs, m); err != nil {
		return err
	}
	if err := replayStore(t, in, plat, m); err != nil {
		return err
	}
	m["bufpool.getput_ns"] = t.replay("bufpool.getput", n, func(int) { bufpool.Put(bufpool.Get(len(in.value) + 64)) }).ns
	if err := replaySeal(t, in, m); err != nil {
		return err
	}
	if err := replayProtocol(t, in, "raft", func(i int) core.Protocol { return raft.New(int64(i + 1)) }, m); err != nil {
		return err
	}
	if err := replayProtocol(t, in, "abd", func(int) core.Protocol { return abd.New() }, m); err != nil {
		return err
	}
	return replayControlPlane(t, in, m)
}

// replayAuthn sends every encoded request through a Shielder pair on the
// workload's cost model and confidentiality.
func replayAuthn(t *tracer, in layerInputs, plat *tee.Platform, msgs [][]byte, m map[string]float64) error {
	var opts []authn.Option
	if in.def.cluster.Confidential {
		opts = append(opts, authn.WithConfidentiality())
	}
	// Every stage gets its own channel, so each verifier sees its counters
	// in order.
	channels := []string{"shield", "verify", "roundtrip", "batch"}
	s := authn.NewShielder(plat.NewEnclave([]byte("s")), opts...)
	v := authn.NewShielder(plat.NewEnclave([]byte("v")), opts...)
	key := make([]byte, 32)
	for _, sh := range []*authn.Shielder{s, v} {
		for _, cq := range channels {
			if err := sh.OpenChannel(cq, key); err != nil {
				return err
			}
		}
	}
	n := len(msgs)
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	m["authn.shield_ns"] = t.replay("authn.shield", n, func(i int) {
		env, err := s.Shield("shield", core.KindClientReq, msgs[i])
		note(err)
		authn.RecyclePayload(&env)
	}).ns

	// Verification needs fresh counters, so the envelopes are shielded first.
	envs := make([]authn.Envelope, n)
	overhead := 0
	for i := range envs {
		var err error
		envs[i], err = s.Shield("verify", core.KindClientReq, msgs[i])
		note(err)
		overhead += envs[i].EncodedSize() - len(msgs[i])
	}
	m["authn.envelope_overhead_bytes"] = float64(overhead) / float64(n)
	encoded := make([][]byte, n)
	var buf []byte
	m["authn.envelope_encode_ns"] = t.replay("authn.envelope_encode", n, func(i int) { buf = envs[i].AppendTo(buf[:0]) }).ns
	for i := range envs {
		encoded[i] = envs[i].AppendTo(nil)
	}
	m["authn.envelope_decode_ns"] = t.replay("authn.envelope_decode", n, func(i int) {
		var e authn.Envelope
		note(authn.DecodeEnvelopeInto(&e, encoded[i]))
	}).ns
	m["authn.verify_ns"] = t.replay("authn.verify", n, func(i int) {
		_, _, err := v.Verify(envs[i])
		note(err)
	}).ns

	// One message's whole journey through the layer.
	rt := t.replay("authn.roundtrip", n, func(i int) {
		env, err := s.Shield("roundtrip", core.KindClientReq, msgs[i])
		note(err)
		buf = env.AppendTo(buf[:0])
		authn.RecyclePayload(&env)
		var e authn.Envelope
		note(authn.DecodeEnvelopeInto(&e, buf))
		_, _, err = v.Verify(e)
		note(err)
	})
	m["authn.roundtrip_ns"], m["authn.roundtrip_allocs"] = rt.ns, rt.allocs

	items := make([]authn.BatchItem, batchSize)
	batch := t.replay("authn.shield_batch16", n/batchSize, func(i int) {
		for j := range items {
			items[j] = authn.BatchItem{Kind: core.KindClientReq, Payload: msgs[i*batchSize+j]}
		}
		env, err := s.ShieldBatch("batch", items)
		note(err)
		authn.RecyclePayload(&env)
	})
	m["authn.shield_batch16_ns_per_msg"] = batch.ns / batchSize
	if firstErr != nil {
		return fmt.Errorf("authn replay: %w", firstErr)
	}
	return nil
}

// replayNetstack sends every encoded request across a two-endpoint fabric on
// the workload's stack model.
func replayNetstack(t *tracer, stack netstack.StackModel, msgs [][]byte, m map[string]float64) error {
	n := len(msgs)
	m["netstack.stack_charge_ns"] = t.replay("netstack.stack_charge", n, func(i int) { stack.Charge(len(msgs[i])) }).ns

	fabric := netstack.NewFabric(netstack.WithStack(stack))
	a, err := fabric.Register("a")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := fabric.Register("b")
	if err != nil {
		return err
	}
	defer b.Close()
	var firstErr error
	send := t.replay("netstack.send", n, func(i int) {
		if err := a.Send("b", msgs[i]); err != nil && firstErr == nil {
			firstErr = err
		}
		<-b.Inbox()
	})
	m["netstack.send_ns"], m["netstack.allocs_per_msg"] = send.ns, send.allocs
	flush := t.replay("netstack.queue_flush16", n/batchSize, func(i int) {
		for j := 0; j < batchSize; j++ {
			msg := msgs[i*batchSize+j]
			// QueueSend takes ownership of a pooled buffer, as the node's
			// egress path hands it one.
			if err := a.QueueSend("b", append(bufpool.Get(len(msg)), msg...)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := a.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
		for len(b.Inbox()) > 0 {
			<-b.Inbox()
		}
	})
	m["netstack.queue_flush_ns_per_msg"] = flush.ns / batchSize
	if firstErr != nil {
		return fmt.Errorf("netstack replay: %w", firstErr)
	}
	return nil
}

// replayStore runs every op's key through a store opened the way the
// workload's nodes open theirs, once as a get and once as a write.
func replayStore(t *tracer, in layerInputs, plat *tee.Platform, m map[string]float64) error {
	store, err := kvstore.Open(plat.NewEnclave([]byte("store")), kvstore.Config{Confidential: in.def.cluster.Confidential, Seed: clusterSeed})
	if err != nil {
		return err
	}
	for _, k := range in.keys {
		if err := store.WriteVersioned(k, in.value, kvstore.Version{TS: 1}); err != nil {
			return err
		}
	}
	m["kvstore.host_bytes_per_key"] = float64(store.HostBytes()) / float64(store.Len())
	var firstErr error
	get := t.replay("kvstore.get", len(in.ops), func(i int) {
		if _, _, err := store.GetVersioned(in.keys[in.ops[i].key]); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	write := t.replay("kvstore.write", len(in.ops), func(i int) {
		if err := store.WriteVersioned(in.keys[in.ops[i].key], in.value, kvstore.Version{TS: uint64(i + 2)}); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	m["kvstore.get_ns"], m["kvstore.allocs_per_get"] = get.ns, get.allocs
	m["kvstore.write_ns"], m["kvstore.allocs_per_write"] = write.ns, write.allocs
	if firstErr != nil {
		return fmt.Errorf("kvstore replay: %w", firstErr)
	}
	return nil
}

// replaySeal appends every op as a mutation to a sealed log in a scratch
// directory, committing once per batch, then times recovery of what it wrote
// and one checkpoint of the key space.
func replaySeal(t *tracer, in layerInputs, m map[string]float64) error {
	dir := filepath.Join(in.workDir, fmt.Sprintf("seal-%s-%d", in.def.name, os.Getpid()))
	defer os.RemoveAll(dir)
	key := seal.KeyFor(make([]byte, 32), "replay")
	log, err := seal.Open(dir, key, "replay", nil, seal.Options{Fresh: true})
	if err != nil {
		return err
	}
	if _, err := log.Recover(func(kvstore.Mutation) error { return nil }); err != nil {
		return err
	}
	n := len(in.ops)
	var firstErr error
	app := t.replay("seal.append", n, func(i int) {
		mut := kvstore.Mutation{Versioned: true, Key: in.keys[in.ops[i].key], Value: in.value, Version: kvstore.Version{TS: uint64(i + 2)}}
		if err := log.Append(mut); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	// Group commit: one fsync covers a batch of appends.
	commit := t.replayWith("seal.commit", n/batchSize, func(i int) {
		for j := 0; j < batchSize; j++ {
			mut := kvstore.Mutation{Versioned: true, Key: in.keys[in.ops[i*batchSize+j].key], Value: in.value, Version: kvstore.Version{TS: uint64(n + i*batchSize + j + 2)}}
			if err := log.Append(mut); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}, func(int) {
		if err := log.Commit(); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if err := log.Close(); err != nil {
		return err
	}
	if firstErr != nil {
		return fmt.Errorf("seal replay: %w", firstErr)
	}
	m["seal.append_ns"], m["seal.allocs_per_append"] = app.ns, app.allocs
	m["seal.commit_us"] = usOf(commit.ns)

	var size int64
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil {
			size += fi.Size()
		}
	}
	records := n + n/batchSize*batchSize
	m["seal.bytes_per_record"] = float64(size) / float64(records)

	log, err = seal.Open(dir, key, "replay", nil, seal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	replayed := 0
	start := time.Now()
	if _, err := log.Recover(func(kvstore.Mutation) error { replayed++; return nil }); err != nil {
		return fmt.Errorf("seal replay: recover: %w", err)
	}
	end := time.Now()
	if replayed != records {
		return fmt.Errorf("seal replay: recovered %d of %d records", replayed, records)
	}
	root := t.root("replay", "seal.recover", start, end)
	t.child(root, "seal.recover", start, end)
	m["seal.replay_ms_per_10k"] = ms(end.Sub(start)) * 10000 / float64(records)

	// One checkpoint of the whole key space, as a durable replica seals one
	// every 8192 records unless the run turns checkpoints off.
	start = time.Now()
	err = log.WriteSnapshot(func(emit func(kvstore.Mutation) bool) error {
		for i, k := range in.keys {
			emit(kvstore.Mutation{Versioned: true, Key: k, Value: in.value, Version: kvstore.Version{TS: uint64(i + 1)}})
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("seal replay: checkpoint: %w", err)
	}
	end = time.Now()
	t.child(t.root("replay", "seal.checkpoint", start, end), "seal.checkpoint", start, end)
	m["seal.checkpoint_ms"] = ms(end.Sub(start))
	return nil
}

// replayProtocol runs the op stream through three instances of one protocol
// on a step net and reports time, messages, bytes and allocations per op.
func replayProtocol(t *tracer, in layerInputs, name string, factory func(i int) core.Protocol, m map[string]float64) error {
	net, err := newStepNet(factory, in.keys, in.value)
	if err != nil {
		return fmt.Errorf("%s replay: %w", name, err)
	}
	coord, _ := net.coordinator()
	msgs0, bytes0 := net.msgs, net.bytes
	failed := 0
	st := t.replay(name+".step", len(in.ops), func(i int) {
		op := in.ops[i]
		cmd := core.Command{Op: core.OpPut, Key: in.keys[op.key], Value: in.value, ClientID: "client-1", Seq: uint64(i + 1)}
		if op.read {
			cmd.Op, cmd.Value = core.OpGet, nil
		}
		if !net.do(coord, cmd) {
			failed++
		}
	})
	if failed > 0 {
		return fmt.Errorf("%s replay: %d of %d commands failed", name, failed, len(in.ops))
	}
	ops := float64(len(in.ops))
	m[name+".step_ns_per_op"] = st.ns
	m[name+".allocs_per_op"] = st.allocs
	m[name+".msgs_per_op"] = float64(net.msgs-msgs0) / ops
	m[name+".bytes_per_op"] = float64(net.bytes-bytes0) / ops
	return nil
}

// replayControlPlane times what set-up pays per principal: one remote
// attestation, and one verification of the signed shard map.
func replayControlPlane(t *tracer, in layerInputs, m map[string]float64) error {
	cas, err := attest.NewService(attest.WithLatencyScale(0))
	if err != nil {
		return err
	}
	plat, err := tee.NewPlatform("attest", tee.WithCostModel(tee.NativeCostModel()))
	if err != nil {
		return err
	}
	code := []byte("replay-principal")
	cas.TrustPlatform(plat)
	cas.AllowMeasurement(tee.MeasureCode(code))
	const principals = 50
	ids := make([]string, principals)
	for i := range ids {
		ids[i] = fmt.Sprintf("p%d", i)
	}
	cas.SetMembership(ids)
	var firstErr error
	att := t.replay("attest.remote_attest", principals, func(i int) {
		agent, err := attest.NewAgent(plat.NewEnclave(code))
		if err == nil {
			var prov attest.Provision
			if prov, err = cas.RemoteAttestation(agent, ids[i]); err == nil {
				_, err = attest.OpenSecrets(agent, prov)
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		return fmt.Errorf("attest replay: %w", firstErr)
	}
	m["attest.remote_attest_us"] = usOf(att.ns)

	ver := t.replay("reconfig.map_verify", 200, func(int) {
		signed, err := reconfig.DecodeSigned(in.signedMap)
		if err == nil {
			_, err = signed.Verify(in.mapKey)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		return fmt.Errorf("reconfig replay: %w", firstErr)
	}
	m["reconfig.map_verify_us"] = usOf(ver.ns)
	return nil
}
