package benchharness

import (
	"fmt"
	"io"
	"time"

	"modab/internal/obs"
	"modab/internal/types"
)

// Trace-sample run parameters: a short, lightly loaded run — the point is
// to read individual message timelines, not to saturate.
const traceN, traceLoad, traceSize, traceRun = 3, 3000, 256, 500 * time.Millisecond

// TraceSample runs a short loaded cluster of each stack with lifecycle
// tracing at the given sampling period (0 = the default, one in 32) and
// writes every process's sampled message timelines, one line per
// (process, message): the stages the message passed at that process, each
// stamped with its virtual time — so the same seed reproduces the same
// dump exactly. The submitter shows the full pipeline (accept → seal →
// propose → decide → adeliver → apply); a non-origin process joins at
// the stages it participates in.
func TraceSample(w io.Writer, sampleEvery uint64, seed int64) error {
	for _, stk := range stacks {
		s, err := run(Scenario{N: traceN, Stack: stk, Load: traceLoad, Size: traceSize,
			Obs: obs.Config{SampleEvery: sampleEvery}}, 0, traceRun, seed)
		if err != nil {
			return fmt.Errorf("trace sample (%s): %w", stk, err)
		}
		fmt.Fprintf(w, "trace — %s stack, 1-in-%d lifecycle sampling (n=%d, load=%d msgs/s, %v run)\n",
			stk, s.Obs[0].SampleEvery(), traceN, traceLoad, traceRun)
		for p, rec := range s.Obs {
			timelines := obs.Timelines(rec.TraceEvents())
			fmt.Fprintf(w, "%s: %d sampled message(s)\n", types.ProcessID(p), len(timelines))
			for _, tl := range timelines {
				fmt.Fprintf(w, "  %s\n", tl)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}
