package core

import (
	"testing"
	"time"
)

// TestStageHandoffAllocFree: the commit request travels by value and its
// reply slice crosses by reference, so the loop → committer handoff pays
// zero heap allocations per iteration. This is the handoff half of the
// hot-path allocation budget; the crypto half is authn's
// TestHotPathAllocBudget.
func TestStageHandoffAllocFree(t *testing.T) {
	commit := make(chan commitReq, 8)
	req := commitReq{replies: make([]deferredReply, 4), enq: time.Now()}

	allocs := testing.AllocsPerRun(200, func() {
		commit <- req
		<-commit
	})
	if allocs != 0 {
		t.Fatalf("commit handoff allocates %.1f times per iteration, want 0", allocs)
	}
}
