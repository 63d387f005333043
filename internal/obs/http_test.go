package obs

import (
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"modab/internal/trace"
)

func TestWriteMetricsPrometheusFormat(t *testing.T) {
	var c trace.Counters
	c.MsgsSent.Add(3)
	c.ADeliver.Add(7)
	c.PipelineDepthObserved.Store(4)
	trace.Raise(&c.PayloadStoreMsgs, 96)
	trace.Raise(&c.PayloadStoreMsgs, 64) // a high-water mark only rises
	trace.Raise(&c.InstancesRetained, 130)
	r := NewRecorder(Config{})
	r.Deliver.Observe(time.Millisecond)
	r.Deliver.Observe(2 * time.Millisecond)

	var b strings.Builder
	WriteMetrics(&b, c.Snapshot(), r)
	out := b.String()

	for _, want := range []string{
		"# TYPE modab_msgs_sent counter\nmodab_msgs_sent 3\n",
		"# TYPE modab_a_deliver counter\nmodab_a_deliver 7\n",
		"# TYPE modab_pipeline_depth_observed gauge\nmodab_pipeline_depth_observed 4\n",
		"# TYPE modab_payload_store_msgs gauge\nmodab_payload_store_msgs 96\n",
		"# TYPE modab_payload_store_bytes gauge\nmodab_payload_store_bytes 0\n",
		"# TYPE modab_descriptors_retained gauge\nmodab_descriptors_retained 0\n",
		"# TYPE modab_instances_retained gauge\nmodab_instances_retained 130\n",
		"# TYPE modab_deliver_latency_seconds histogram\n",
		`modab_deliver_latency_seconds_bucket{le="+Inf"} 2`,
		"modab_deliver_latency_seconds_sum 0.003\n",
		"modab_deliver_latency_seconds_count 2\n",
		"# TYPE modab_trace_sample_every gauge\nmodab_trace_sample_every 32\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output lacks %q:\n%s", want, out)
		}
	}

	// Histogram buckets must be cumulative: the +Inf bucket equals the
	// count and every preceding bucket is non-decreasing.
	var last int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "modab_deliver_latency_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket series not cumulative at %q", line)
		}
		last = v
	}
	if last != 2 {
		t.Fatalf("final bucket = %d, want the total count 2", last)
	}
}

func TestWriteMetricsNilRecorder(t *testing.T) {
	var b strings.Builder
	WriteMetrics(&b, trace.Snapshot{}, nil)
	out := b.String()
	if !strings.Contains(out, "modab_msgs_sent 0") {
		t.Errorf("counters missing without a recorder:\n%s", out)
	}
	if strings.Contains(out, "latency_seconds") || strings.Contains(out, "trace_sample_every") {
		t.Errorf("nil recorder still emitted histogram series:\n%s", out)
	}
}

func TestHTTPHandlerSurface(t *testing.T) {
	var c trace.Counters
	c.ADeliver.Add(5)
	rec := NewRecorder(Config{})
	rec.Deliver.Observe(time.Millisecond)
	h := NewHTTPHandler(func() trace.Snapshot { return c.Snapshot() }, rec)
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		data, _ := io.ReadAll(resp.Body)
		return string(data), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ctype)
	}
	if !strings.Contains(body, "modab_a_deliver 5") {
		t.Errorf("/metrics lacks live counter:\n%s", body)
	}
	if body, _ := get("/debug/vars"); !strings.Contains(body, `"modab"`) {
		t.Errorf("/debug/vars lacks the modab var:\n%s", body)
	}
	if body, _ := get("/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

func TestSnakeCase(t *testing.T) {
	for in, want := range map[string]string{
		"MsgsSent":              "msgs_sent",
		"PayloadBytesSent":      "payload_bytes_sent",
		"ABCast":                "ab_cast",
		"ADeliver":              "a_deliver",
		"PipelineDepthObserved": "pipeline_depth_observed",
		"RecoveryNanos":         "recovery_nanos",
	} {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}
