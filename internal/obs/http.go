package obs

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"modab/internal/trace"
)

// NewHTTPHandler builds the live exposition surface of one process:
//
//	/metrics            Prometheus text format — every trace counter and
//	                    every latency histogram;
//	/debug/vars         expvar (standard vars plus a "modab" var with the
//	                    counter snapshot and histogram summaries);
//	/debug/pprof/...    net/http/pprof profiles.
//
// counters supplies the live counter snapshot; rec may be nil (the
// histogram and trace sections are then omitted).
func NewHTTPHandler(counters func() trace.Snapshot, rec *Recorder) http.Handler {
	publishExpvar(counters, rec)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteMetrics(w, counters(), rec)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// expvarOnce guards the process-global expvar names (Publish panics on
// reuse; the first handler in a process wins, which matches the
// one-node-per-process deployment shape).
var expvarOnce sync.Once

func publishExpvar(counters func() trace.Snapshot, rec *Recorder) {
	expvarOnce.Do(func() {
		expvar.Publish("modab", expvar.Func(func() any {
			out := map[string]any{"counters": counters()}
			if rec != nil {
				hists := map[string]map[string]any{}
				for _, nh := range rec.Histograms() {
					s := nh.H.Snapshot()
					hists[nh.Name] = map[string]any{
						"count": s.Count,
						"mean":  s.Mean().String(),
						"p50":   s.P50().String(),
						"p95":   s.P95().String(),
						"p99":   s.P99().String(),
						"max":   s.MaxDur().String(),
					}
				}
				out["latency"] = hists
			}
			return out
		}))
	})
}

// WriteMetrics renders one counter snapshot plus one recorder in the
// Prometheus text exposition format: every trace.Snapshot field becomes
// modab_<snake_case_name>, every histogram a modab_<name>_latency_seconds
// histogram with cumulative log₂ buckets. The counter list is built by
// reflection, so a new trace counter shows up here without code changes.
func WriteMetrics(w io.Writer, snap trace.Snapshot, rec *Recorder) {
	v := reflect.ValueOf(snap)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() != reflect.Int64 {
			continue
		}
		name := "modab_" + snakeCase(f.Name)
		kind := "counter"
		if trace.IsGauge(f.Name) {
			kind = "gauge" // a high-water mark: aggregates as a max, not a sum
		}
		fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", name, kind, name, v.Field(i).Int())
	}
	for _, nh := range rec.Histograms() {
		s := nh.H.Snapshot()
		name := "modab_" + nh.Name + "_latency_seconds"
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		hi := 0
		for i, b := range s.Buckets {
			if b != 0 {
				hi = i
			}
		}
		var cum int64
		for i := 0; i <= hi; i++ {
			cum += s.Buckets[i]
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatLE(BucketUpper(i)), cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
		fmt.Fprintf(w, "%s_sum %g\n", name, time.Duration(s.Sum).Seconds())
		fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
	}
	if rec != nil {
		fmt.Fprintf(w, "# TYPE modab_trace_sample_every gauge\nmodab_trace_sample_every %d\n", rec.SampleEvery())
	}
}

// formatLE renders a bucket upper bound in seconds for a Prometheus le
// label.
func formatLE(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// snakeCase converts a Go exported identifier to snake_case, keeping
// acronym runs together ("PayloadBytesSent" → "payload_bytes_sent",
// "ABCast" → "ab_cast").
func snakeCase(s string) string {
	rs := []rune(s)
	var b strings.Builder
	for i, r := range rs {
		upper := r >= 'A' && r <= 'Z'
		if upper && i > 0 {
			prevLower := rs[i-1] >= 'a' && rs[i-1] <= 'z' || rs[i-1] >= '0' && rs[i-1] <= '9'
			nextLower := i+1 < len(rs) && rs[i+1] >= 'a' && rs[i+1] <= 'z'
			if prevLower || nextLower {
				b.WriteByte('_')
			}
		}
		if upper {
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}
