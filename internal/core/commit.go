package core

import "time"

// The commit stage. The node's protocol loop does all per-message work —
// decode, verify, protocol step, seal, send — on one goroutine. The one
// thing it hands off is the durable node's group-commit fsync:
//
//	protocol loop ──(commit queue)──→ committer: WAL fsync, then the
//	                                   iteration's client replies
//
// The loop submits one request per iteration, in order. The committer
// fsyncs (seal.Log.Sync, off the log's lock so appends keep flowing) and
// only then releases that iteration's client replies — an ack never
// outruns the fsync backing it, while the fsync overlaps the next loop
// iteration instead of stalling it.
//
// Teardown: the loop is the only producer, so run() closes the queue once
// the loop has exited and waits for the committer to drain it before the
// node's doneCh closes. Stop and Crash therefore never race an in-flight
// fsync on the WAL they close or abandon.

// commitQueueDepth bounds the loop iterations awaiting their fsync. The
// loop blocks (counted in Stats.PipelineStalls) when it is full —
// backpressure, not shedding: the queued replies back writes already applied.
const commitQueueDepth = 16

// commitReq is one loop iteration's durability work travelling loop →
// committer: fsync everything appended, then send the parked replies. enq
// stamps the handoff when telemetry is on (zero otherwise); the committer
// records the dwell into the queue-wait phase histogram.
type commitReq struct {
	replies []deferredReply
	enq     time.Time
}

// handoffCommit ends a durable iteration: the parked client replies travel
// to the committer, which runs the overlapped WAL fsync and only then sends
// them. Iterations that neither appended nor parked replies skip the
// handoff. The automatic checkpoint trigger stays on the loop
// (WriteSnapshot coordinates with the committer through the log's own
// locking).
func (n *Node) handoffCommit() {
	if n.iterAppends.Swap(0) > 0 || len(n.deferredReplies) > 0 {
		req := commitReq{replies: n.deferredReplies}
		n.deferredReplies = n.takeReplySlice()
		if n.phase.queueWait != nil {
			req.enq = time.Now()
		}
		n.submitCommit(req)
	}
	if !n.walBroken.Load() && n.wal.ShouldSnapshot() && n.snapInFlight.CompareAndSwap(false, true) {
		// Checkpoint off-loop: the O(store) dump+seal+fsync must not stall
		// ticks, heartbeats, or the apply path. WriteSnapshot holds the log's
		// lock only to stamp and rotate; appends keep flowing meanwhile.
		go func() {
			defer n.snapInFlight.Store(false)
			if err := n.Checkpoint(); err != nil {
				n.cfg.Logf("node %s: checkpoint: %v", n.id, err)
			}
		}()
	}
}

// submitCommit queues one iteration's durability work. Only the protocol
// loop calls this, so request order equals loop-iteration order.
func (n *Node) submitCommit(req commitReq) {
	select {
	case n.commitCh <- req:
	default:
		n.stats.PipelineStalls.Add(1)
		n.trace("stall", "commit queue full")
		select {
		case n.commitCh <- req:
		case <-n.stopCh:
			// Node stopping before the fsync could be queued: the replies
			// must never be sent (their writes may not be durable).
			n.putReplySlice(req.replies)
		}
	}
}

// committer is the commit stage: per loop iteration, one overlapped WAL
// fsync followed by that iteration's client replies. A failed fsync
// crash-stops the node — the replies are withheld, because their writes are
// not durable. It drains the queue until run() closes it, then closes done.
func (n *Node) committer(done chan<- struct{}) {
	defer close(done)
	for req := range n.commitCh {
		if !req.enq.IsZero() {
			n.phase.queueWait.RecordSince(req.enq)
		}
		if err := n.wal.Sync(); err != nil {
			n.cfg.Logf("node %s: wal sync failed, crash-stopping: %v", n.id, err)
			n.walBroken.Store(true)
			n.dumpTrace("wal sync failed")
			n.enclave.Crash()
		}
		if !n.walBroken.Load() {
			for i := range req.replies {
				n.sendToClientNow(req.replies[i].cmd, req.replies[i].w)
			}
		}
		n.putReplySlice(req.replies)
	}
}

// takeReplySlice returns a recycled deferred-reply slice (or nil).
func (n *Node) takeReplySlice() []deferredReply {
	n.replyFreeMu.Lock()
	defer n.replyFreeMu.Unlock()
	if k := len(n.replyFree); k > 0 {
		s := n.replyFree[k-1]
		n.replyFree = n.replyFree[:k-1]
		return s
	}
	return nil
}

// putReplySlice hands a consumed deferred-reply slice back for reuse.
func (n *Node) putReplySlice(s []deferredReply) {
	if cap(s) == 0 {
		return
	}
	for i := range s {
		s[i] = deferredReply{}
	}
	n.replyFreeMu.Lock()
	if len(n.replyFree) < maxOutFreelist {
		n.replyFree = append(n.replyFree, s[:0])
	}
	n.replyFreeMu.Unlock()
}
