package modab_test

import (
	"context"
	"testing"
	"time"

	"modab"
)

// digestStacks enumerates the stacks exercised by the digest-ordering
// facade tests.
var digestStacks = []modab.Stack{modab.Modular, modab.Monolithic}

// TestDigestOrderingSimulated drives both stacks with digest ordering on
// under the deterministic simulator: every submitted message is adelivered
// exactly once per process, and the ordering-path byte volume stays far
// below the disseminated payload volume.
func TestDigestOrderingSimulated(t *testing.T) {
	const n, msgs = 3, 40
	body := make([]byte, 256)
	for i := range body {
		body[i] = byte(i)
	}
	for _, stk := range digestStacks {
		cluster, err := modab.New(n, stk,
			modab.WithSimulation(7),
			modab.WithDigestOrdering(),
			modab.WithBatching(8, 0, 2*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for j := 0; j < msgs; j++ {
			if _, err := cluster.Abcast(ctx, j%n, body); err != nil {
				t.Fatalf("%s: abcast %d: %v", stk, j, err)
			}
		}
		cluster.Sim().RunIdle(5 * time.Second)
		st := cluster.Stats()
		if got, want := st.Total.ADeliver, int64(n*msgs); got != want {
			t.Fatalf("%s: ADeliver=%d, want %d", stk, got, want)
		}
		if st.Total.OrderedBytes == 0 || st.Total.DisseminatedBytes == 0 {
			t.Fatalf("%s: byte-split counters empty: ordered=%d disseminated=%d",
				stk, st.Total.OrderedBytes, st.Total.DisseminatedBytes)
		}
		// Descriptors are ~32 wire bytes against 256-byte bodies: ordering
		// traffic must not carry the payload volume.
		if st.Total.OrderedBytes >= st.Total.DisseminatedBytes {
			t.Fatalf("%s: ordered bytes (%d) not below disseminated bytes (%d)",
				stk, st.Total.OrderedBytes, st.Total.DisseminatedBytes)
		}
		if err := cluster.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDigestOrderingRing composes digest ordering with ring dissemination:
// the announce frames relay around the successor ring while descriptors
// order all-to-all.
func TestDigestOrderingRing(t *testing.T) {
	const n, msgs = 5, 30
	for _, stk := range digestStacks {
		cluster, err := modab.New(n, stk,
			modab.WithSimulation(11),
			modab.WithDigestOrdering(),
			modab.WithDissemination(modab.DissemRing),
			modab.WithBatching(8, 0, 2*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for j := 0; j < msgs; j++ {
			if _, err := cluster.Abcast(ctx, j%n, []byte("ring-digest")); err != nil {
				t.Fatalf("%s: abcast %d: %v", stk, j, err)
			}
		}
		cluster.Sim().RunIdle(5 * time.Second)
		if got, want := cluster.Stats().Total.ADeliver, int64(n*msgs); got != want {
			t.Fatalf("%s: ADeliver=%d, want %d", stk, got, want)
		}
		if err := cluster.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDigestOrderingUnbatched covers the unbatched digest path: each
// message announces as its own single-message batch, which no stack counts
// as a sender batch.
func TestDigestOrderingUnbatched(t *testing.T) {
	for _, stk := range digestStacks {
		cluster, err := modab.New(3, stk,
			modab.WithSimulation(3),
			modab.WithDigestOrdering())
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for j := 0; j < 12; j++ {
			if _, err := cluster.Abcast(ctx, j%3, []byte{byte(j)}); err != nil {
				t.Fatalf("%s: abcast %d: %v", stk, j, err)
			}
		}
		cluster.Sim().RunIdle(5 * time.Second)
		if got := cluster.Stats().Total.ADeliver; got != 36 {
			t.Fatalf("%s: ADeliver=%d, want 36", stk, got)
		}
		// SenderBatches counts batches the accumulator sealed: without one
		// there are none, on either stack (modular used to count one per
		// announced message here, monolithic none).
		if got := cluster.Stats().Total.SenderBatches; got != 0 {
			t.Fatalf("%s: SenderBatches=%d without batching, want 0", stk, got)
		}
		if err := cluster.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
