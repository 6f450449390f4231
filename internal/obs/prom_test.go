package obs

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promSampleLine matches one exposition sample: name, optional {labels},
// and an integer or +Inf-free value.
var promSampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9]+(\.[0-9]+)?)$`)

// checkPromFormat validates text as Prometheus exposition format 0.0.4:
// every line is a comment or a well-formed sample, every sample's family
// has a preceding TYPE line, and histogram buckets are cumulative with
// increasing le. Returns the number of sample lines.
func checkPromFormat(t *testing.T, text string) int {
	t.Helper()
	typed := map[string]string{}
	samples := 0
	lastBucket := map[string]int64{} // label-set key -> last cumulative count
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promSampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		samples++
		name := m[1]
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f := strings.TrimSuffix(name, suffix); f != name && typed[f] == "histogram" {
				family = f
			}
		}
		if _, ok := typed[family]; !ok {
			t.Fatalf("sample %q has no preceding TYPE line", line)
		}
		if strings.HasSuffix(name, "_bucket") && typed[family] == "histogram" {
			// Cumulative check per series: counts never decrease.
			key := family + stripLe(m[2])
			v, err := strconv.ParseInt(m[3], 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", m[3], err)
			}
			if v < lastBucket[key] {
				t.Fatalf("bucket series %s not cumulative: %d after %d", key, v, lastBucket[key])
			}
			lastBucket[key] = v
		}
	}
	return samples
}

// stripLe removes the le="..." label from a rendered label block so bucket
// lines of one series share a key.
var leRe = regexp.MustCompile(`,?le="[^"]*"`)

func stripLe(labels string) string { return leRe.ReplaceAllString(labels, "") }

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("det_sync_ops", L("tid", 0)).Add(10)
	r.Counter("det_sync_ops", L("tid", 1)).Add(20)
	r.Func("mem_peak_pages", func() int64 { return 7 })
	r.Func("clock_token_grants", func() int64 { return 42 })
	h := r.Histogram("commit_pages", L("tid", 0))
	h.Observe(1)
	h.Observe(3)
	h.Observe(100)

	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if n := checkPromFormat(t, text); n == 0 {
		t.Fatal("no samples rendered")
	}

	for _, want := range []string{
		"# TYPE det_sync_ops counter\n",
		"# TYPE mem_peak_pages gauge\n",
		"# TYPE clock_token_grants gauge\n", // func gauges expose as gauge
		"# TYPE commit_pages histogram\n",
		`det_sync_ops{tid="0"} 10` + "\n",
		`det_sync_ops{tid="1"} 20` + "\n",
		"mem_peak_pages 7\n",
		"clock_token_grants 42\n",
		`commit_pages_bucket{tid="0",le="1"} 1` + "\n",
		`commit_pages_bucket{tid="0",le="3"} 2` + "\n",
		`commit_pages_bucket{tid="0",le="+Inf"} 3` + "\n",
		`commit_pages_sum{tid="0"} 104` + "\n",
		`commit_pages_count{tid="0"} 3` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	// One TYPE line per family, not per label set.
	if n := strings.Count(text, "# TYPE det_sync_ops "); n != 1 {
		t.Errorf("det_sync_ops has %d TYPE lines, want 1", n)
	}

	// Rendering is deterministic for a fixed registry state.
	var b2 strings.Builder
	if err := WritePrometheus(&b2, r); err != nil {
		t.Fatal(err)
	}
	if b2.String() != text {
		t.Error("two renderings of the same registry differ")
	}
}

func TestPromLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird", Label{Key: "path", Value: `a"b\c` + "\n"}).Inc()
	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	want := `weird{path="a\"b\\c\n"} 1` + "\n"
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped label rendering = %q, want to contain %q", b.String(), want)
	}
}

func TestListenAndServeMetrics(t *testing.T) {
	o := New()
	o.Registry().Counter("det_sync_ops", L("tid", 3)).Add(5)
	o.Lane(3) // registers obs_lane_dropped_total{tid=3}

	srv, err := o.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, PromContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	checkPromFormat(t, text)
	for _, want := range []string{
		`det_sync_ops{tid="3"} 5`,
		`obs_lane_dropped_total{tid="3"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}

	// pprof must be mounted too.
	pr, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d, want 200", pr.StatusCode)
	}
}
