package loadgen

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestSleepUntilLateness: open-loop latency is charged from each arrival's
// due time, so the pacer must not itself make arrivals late. Over a few
// hundred deadlines 0.3–3 ms ahead — the gaps a kHz-rate Poisson schedule
// produces — the median lateness stays under 100 µs. A short time.Sleep
// overshoots by about a millisecond on Linux, which a pacer that sleeps
// into the last stretch would add to every arrival.
func TestSleepUntilLateness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	late := make([]time.Duration, 300)
	for i := range late {
		ahead := 300*time.Microsecond + time.Duration(rng.Int63n(int64(2700*time.Microsecond)))
		due := time.Now().Add(ahead)
		sleepUntil(due)
		late[i] = time.Since(due)
	}
	slices.Sort(late)
	if med := late[len(late)/2]; med >= 100*time.Microsecond {
		t.Fatalf("sleepUntil median lateness %v over %d deadlines, want < 100µs (p90 %v)",
			med, len(late), late[len(late)*9/10])
	}
}
