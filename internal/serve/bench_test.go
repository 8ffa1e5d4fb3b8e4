package serve

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkServeOp times one closed-loop service operation on a server
// with a data dir, as perfbench's serve-mixed clients run it: a fresh
// submit of the RTD-divider .tran deck, a blocking result read, and a
// full read of the job's NDJSON stream. It reports the stream bytes per
// op beside the allocations.
func BenchmarkServeOp(b *testing.B) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "rtd_divider.sp"))
	if err != nil {
		b.Fatal(err)
	}
	_, ts := newTestServer(b, Config{Workers: 1, DataDir: b.TempDir()})
	req := SubmitRequest{Deck: string(src), Analysis: "tran", Fresh: true}
	var streamed int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info := submit(b, ts, req, http.StatusAccepted)
		var res Result
		if code := getJSON(b, ts.URL+"/v1/jobs/"+info.ID+"/result", &res); code != http.StatusOK {
			b.Fatalf("result %s: HTTP %d", info.ID, code)
		}
		code, body := getRaw(b, ts.URL+"/v1/jobs/"+info.ID+"/stream")
		if code != http.StatusOK || len(body) == 0 {
			b.Fatalf("stream %s: HTTP %d, %d bytes", info.ID, code, len(body))
		}
		streamed += int64(len(body))
	}
	b.StopTimer()
	b.ReportMetric(float64(streamed)/float64(b.N), "stream-B/op")
}
