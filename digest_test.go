package modab_test

import (
	"testing"
	"time"

	"modab"
	"modab/internal/netsim"
)

// digestStacks enumerates the stacks exercised by the digest-ordering
// tests.
var digestStacks = []modab.Stack{modab.Modular, modab.Monolithic}

// digestSim runs msgs submissions of body, round-robin over the n
// processes, on a seeded simulated cluster under cfg with digest ordering
// on, and returns the cluster once it is idle.
func digestSim(t *testing.T, stk modab.Stack, n int, seed int64, cfg modab.Config, msgs int, body []byte) *netsim.Cluster {
	t.Helper()
	cfg.DigestOrdering = true
	c := newSim(t, netsim.Options{N: n, Stack: stk, Seed: seed, Engine: cfg})
	for j := 0; j < msgs; j++ {
		simAbcast(t, c, j%n, 0, body)
	}
	c.RunIdle(5 * time.Second)
	if got, want := c.Stats().Total.ADeliver, int64(n*msgs); got != want {
		t.Fatalf("%s: ADeliver=%d, want %d", stk, got, want)
	}
	return c
}

// TestDigestOrderingSimulated drives both stacks with digest ordering on
// under the deterministic simulator: every submitted message is adelivered
// exactly once per process, and the ordering-path byte volume stays far
// below the disseminated payload volume.
func TestDigestOrderingSimulated(t *testing.T) {
	body := make([]byte, 256)
	for i := range body {
		body[i] = byte(i)
	}
	for _, stk := range digestStacks {
		cfg := modab.DefaultConfig(3)
		cfg.Batch = modab.BatchConfig{MaxMsgs: 8, MaxDelay: 2 * time.Millisecond}
		tot := digestSim(t, stk, 3, 7, cfg, 40, body).Stats().Total
		if tot.OrderedBytes == 0 || tot.DisseminatedBytes == 0 {
			t.Fatalf("%s: byte-split counters empty: ordered=%d disseminated=%d",
				stk, tot.OrderedBytes, tot.DisseminatedBytes)
		}
		// Descriptors are ~32 wire bytes against 256-byte bodies: ordering
		// traffic must not carry the payload volume.
		if tot.OrderedBytes >= tot.DisseminatedBytes {
			t.Fatalf("%s: ordered bytes (%d) not below disseminated bytes (%d)",
				stk, tot.OrderedBytes, tot.DisseminatedBytes)
		}
	}
}

// TestDigestOrderingRing composes digest ordering with ring dissemination:
// the announce frames relay around the successor ring while descriptors
// order all-to-all.
func TestDigestOrderingRing(t *testing.T) {
	for _, stk := range digestStacks {
		cfg := modab.DefaultConfig(5)
		cfg.Dissemination = modab.DissemRing
		cfg.Batch = modab.BatchConfig{MaxMsgs: 8, MaxDelay: 2 * time.Millisecond}
		digestSim(t, stk, 5, 11, cfg, 30, []byte("ring-digest"))
	}
}

// TestDigestOrderingUnbatched covers the unbatched digest path: each
// message announces as its own single-message batch, which no stack counts
// as a sender batch.
func TestDigestOrderingUnbatched(t *testing.T) {
	for _, stk := range digestStacks {
		c := digestSim(t, stk, 3, 3, modab.DefaultConfig(3), 12, []byte("unbatched"))
		// SenderBatches counts batches the accumulator sealed: without one
		// there are none, on either stack (modular used to count one per
		// announced message here, monolithic none).
		if got := c.Stats().Total.SenderBatches; got != 0 {
			t.Fatalf("%s: SenderBatches=%d without batching, want 0", stk, got)
		}
	}
}
