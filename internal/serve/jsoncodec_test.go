package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"moe"
)

// readmeBody is README's curl example, pretty-printed as it is there.
const readmeBody = `{
  "tenant": "svc-a",
  "observations": [{"time": 0.0, "region_start": true, "rate": 100,
    "features": [0.3,0.3,0.3,0.3,0.3,0.3,0.3,0.3,0.3,32],
    "available_procs": 32}]}`

// benchLine is one request line in the shape perfbench's json workload
// sends: shortest-form floats, ten features, available_procs last.
const benchLine = `{"tenant":"t-3","observations":[{"time":12.5,"features":[0.25,1,0.031,7,3.5e-05,16,0.4,0.5,12,1e+21],"rate":987.125,"region_start":true,"available_procs":16},{"time":12.75,"features":[0.25,1,0.031,7,0,16,0.4,0.5,12,0],"rate":-0,"available_procs":15}]}` + "\n"

var decideJSONSeeds = []string{
	readmeBody,
	benchLine,
	benchLine + benchLine + benchLine,
	`{"request_id":"req-1","observations":[{"time":1}],"tenant":"svc-a"}`,
	`{}`, ` `, ``, `{"tenant":"a","observations":[]}`,
	// Escapes, mixed-case and unknown keys, null, duplicate keys.
	`{"tenant":"a\u0062","observations":[{"time":1}]}`,
	`{"tenant":"a\"b","observations":[{"time":1}]}`,
	`{"Tenant":"a","observations":[{"time":1}]}`,
	`{"tenant":"a","observations":[{"TIME":1}]}`,
	`{"tenant":"a","extra":1,"observations":[{"time":1}]}`,
	`{"tenant":null,"observations":[{"time":1}]}`,
	`{"tenant":"a","observations":null}`,
	`{"tenant":"a","observations":[null]}`,
	`{"tenant":"a","observations":[{"features":null}]}`,
	`null`,
	`{"tenant":"a","tenant":"b","observations":[{"time":1}]}`,
	`{"tenant":"a","observations":[{"time":1,"time":2}]}`,
	`{"tenant":"a","observations":[{"time":1}],"observations":[{"time":2}]}`,
	// Feature counts at and past the cap.
	`{"tenant":"a","observations":[{"features":[1,2,3,4,5,6,7,8,9,10]}]}`,
	`{"tenant":"a","observations":[{"features":[1,2,3,4,5,6,7,8,9,10,11]}]}`,
	// Numbers at the edges of the grammar and of strconv.
	`{"tenant":"a","observations":[{"time":-0,"rate":-0.0,"available_procs":-0}]}`,
	`{"tenant":"a","observations":[{"time":1e400}]}`,
	`{"tenant":"a","observations":[{"time":1e-400}]}`,
	`{"tenant":"a","observations":[{"available_procs":1.0}]}`,
	`{"tenant":"a","observations":[{"available_procs":1e2}]}`,
	`{"tenant":"a","observations":[{"available_procs":9223372036854775808}]}`,
	`{"tenant":"a","observations":[{"time":01}]}`,
	`{"tenant":"a","observations":[{"time":1.}]}`,
	`{"tenant":"a","observations":[{"time":.5}]}`,
	`{"tenant":"a","observations":[{"time":+1}]}`,
	`{"tenant":"a","observations":[{"time":"1"}]}`,
	`{"tenant":"a","observations":[{"region_start":1}]}`,
	`{"tenant":"a","observations":[{"region_start":tru}]}`,
	// Trailing garbage, concatenated values, truncation.
	`{"tenant":"a","observations":[{"time":1}]} garbage`,
	`{"tenant":"a","observations":[{"time":1}]}{"tenant":"b","observations":[{"time":2}]}`,
	`{"tenant":"a","observations":[{"time":1}]}[]`,
	`{"tenant":"a","observations":[{"time":1`,
	`{"tenant":"a","observations":[{"time":1},]}`,
	"{\"tenant\":\"a\u00e9\",\"observations\":[{\"time\":1}]}",
	"\t\r\n {\t\"tenant\" :\r\"a\" ,\n\"observations\": [ { \"time\" : 1 } ] }\n",
}

// FuzzDecideJSON holds the codec to its reference: on any bytes, read as
// one body and as an NDJSON stream, with and without a read error after
// the last byte, the fast path plus fallback must agree with pure
// encoding/json plus toObs on the accept/reject decision, the error text,
// the decoded request (floats bit for bit) and where each value ended.
func FuzzDecideJSON(f *testing.F) {
	for _, s := range decideJSONSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, readErr := range []error{nil, errors.New("connection reset")} {
			src := func() io.Reader {
				if readErr == nil {
					return bytes.NewReader(data)
				}
				return io.MultiReader(bytes.NewReader(data), errReader{readErr})
			}

			var d decideRequest
			wantErr := json.NewDecoder(src()).Decode(&d)
			var got jsonRequest
			_, _, err := decodeJSON(data, readErr, &got)
			sameDecode(t, "body", &d, wantErr, &got, err)

			ref := json.NewDecoder(src())
			off := 0
			for line := 0; ; line++ {
				var d decideRequest
				wantErr := ref.Decode(&d)
				var got jsonRequest
				n, _, err := decodeJSON(data[off:], readErr, &got)
				sameDecode(t, "line", &d, wantErr, &got, err)
				if wantErr != nil {
					break
				}
				if off += n; int64(off) != ref.InputOffset() {
					t.Fatalf("line %d ends at %d, encoding/json at %d", line, off, ref.InputOffset())
				}
			}
		}
	})
}

// sameDecode compares the codec's result with encoding/json's plus toObs.
func sameDecode(t *testing.T, what string, d *decideRequest, wantErr error, got *jsonRequest, err error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, encoding/json %v", what, err, wantErr)
	}
	if err != nil {
		return
	}
	var want jsonRequest
	want.fromDecoded(d)
	if got.tenant != want.tenant || got.reqID != want.reqID {
		t.Fatalf("%s: tenant %q id %q, want %q %q", what, got.tenant, got.reqID, want.tenant, want.reqID)
	}
	if (got.err == nil) != (want.err == nil) || got.err != nil && got.err.Error() != want.err.Error() {
		t.Fatalf("%s: observation error %v, want %v", what, got.err, want.err)
	}
	if len(got.obs) != len(want.obs) {
		t.Fatalf("%s: %d observations, want %d", what, len(got.obs), len(want.obs))
	}
	for i := range got.obs {
		if !sameObs(&got.obs[i], &want.obs[i]) {
			t.Fatalf("%s: observation %d is %+v, want %+v", what, i, got.obs[i], want.obs[i])
		}
	}
}

func sameObs(a, b *moe.Observation) bool {
	bits := math.Float64bits
	if bits(a.Time) != bits(b.Time) || bits(a.Rate) != bits(b.Rate) ||
		a.RegionStart != b.RegionStart || a.AvailableProcs != b.AvailableProcs {
		return false
	}
	for j := range a.Features {
		if bits(a.Features[j]) != bits(b.Features[j]) {
			return false
		}
	}
	return true
}

// TestAppendDecideResponseMatchesEncoder pins the response line to the
// bytes json.Encoder writes for the same decideResponse.
func TestAppendDecideResponseMatchesEncoder(t *testing.T) {
	for _, r := range []decideResponse{
		{Tenant: "svc-a", Threads: []int{4}, Decisions: 1},
		{Tenant: "t-3", Threads: []int{1, 32, 7, 16}, Decisions: 1 << 40},
		{Tenant: "A.b_c-9", Threads: []int{2, 3}, Decisions: 17, Deduped: true},
		{Tenant: "x", Threads: nil, Decisions: 0},
		{Tenant: "x", Threads: []int{}, Decisions: 5, Deduped: true},
		{Tenant: "y", Threads: []int{-1, math.MaxInt}, Decisions: math.MinInt64},
	} {
		if !tenantIDRe.MatchString(r.Tenant) {
			t.Fatalf("tenant %q is not a valid ID", r.Tenant)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&r); err != nil {
			t.Fatal(err)
		}
		if got := appendDecideResponse([]byte("prefix"), &r); string(got) != "prefix"+want.String() {
			t.Errorf("%+v: got %q, want %q", r, got[len("prefix"):], want.String())
		}
	}
}

// TestJSONDecodeFastPath proves the canonical bodies clients actually send
// — README's pretty-printed curl body and perfbench-shaped NDJSON lines —
// take the fast path. Without it, a fast path that always fell back would
// still pass FuzzDecideJSON.
func TestJSONDecodeFastPath(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	post := func(contentType, body string) string {
		resp, err := http.Post(ts.URL+"/v1/decide", contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || bytes.Contains(out, []byte(`"code"`)) {
			t.Fatalf("status %d: %s", resp.StatusCode, out)
		}
		return string(out)
	}
	post("application/json", readmeBody)
	if n := srv.metrics.jsonFast.Value(); n != 1 {
		t.Fatalf("README body: %d fast decodes, want 1", n)
	}
	const lines = 5
	out := post("application/x-ndjson", strings.Repeat(benchLine, lines))
	if n := strings.Count(out, "\n"); n != lines {
		t.Fatalf("%d response lines, want %d:\n%s", n, lines, out)
	}
	if n := srv.metrics.jsonFast.Value(); n != 1+lines {
		t.Fatalf("%d fast decodes, want %d", n, 1+lines)
	}
	if n := srv.metrics.jsonFallback.Value(); n != 0 {
		t.Fatalf("%d fallback decodes, want 0", n)
	}

	// An escape is still served, through the fallback, and counted there.
	post("application/json", `{"tenant":"svc-\u0061","observations":[{"time":1}]}`)
	if n := srv.metrics.jsonFallback.Value(); n != 1 {
		t.Fatalf("%d fallback decodes after an escaped body, want 1", n)
	}
}
