// Command streamdrive is the wire-protocol client behind
// scripts/stream_smoke.sh. It splits -decisions across -tenants pipelined
// sessions against a running moed, requires every tenant's decision
// counter to count up contiguously from -base (the resume proof after a
// restart), and prints a JSON summary on stdout.
//
// Usage:
//
//	go run ./scripts/streamdrive -target 127.0.0.1:9188 -tenants 8 -decisions 10000
//	go run ./scripts/streamdrive -target 127.0.0.1:9188 -decisions 256 -base 1248
//
// A -target with an http:// or https:// scheme is dialled through the
// daemon's HTTP upgrade; anything else is a raw stream address.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"moe"
	"moe/internal/features"
	"moe/internal/serve"
	"moe/moeclient"
)

const (
	// maxThreads is every tenant's machine cap under moed's defaults.
	maxThreads = serve.DefMaxThreads
	// batch is the observations per frame.
	batch = 4
	// flushEvery is the frames queued between client flushes.
	flushEvery = 16
)

func main() {
	target := flag.String("target", "", "moed stream address, or base URL for the HTTP upgrade")
	tenants := flag.Int("tenants", 8, "concurrent tenant sessions")
	decisions := flag.Int("decisions", 10000, "total decisions across all tenants")
	base := flag.Int("base", 0, "per-tenant decisions already served (responses must count up from it)")
	flag.Parse()
	if *target == "" || *tenants < 1 {
		fmt.Fprintln(os.Stderr, "streamdrive: need -target and -tenants >= 1")
		os.Exit(2)
	}
	if err := drive(*target, *tenants, *decisions, *base); err != nil {
		fmt.Fprintf(os.Stderr, "streamdrive: %v\n", err)
		os.Exit(1)
	}
}

// obsFor is tenant seed's k-th observation: clean features, constant
// availability, monotone clock, perturbed per tenant.
func obsFor(seed, k int) moe.Observation {
	var f moe.Features
	for j := range f {
		f[j] = 0.15*float64(j+1) + 0.02*float64((k*7+j*3+seed)%11)
	}
	f[features.Processors] = maxThreads
	return moe.Observation{
		Time:           0.25 * float64(k),
		Features:       f,
		RegionStart:    k%4 == 0,
		Rate:           100 + float64(seed%13),
		AvailableProcs: maxThreads,
	}
}

func tenantID(i int) string { return fmt.Sprintf("stream-%03d", i) }

func tenantSeed(id string) int {
	seed := 0
	for _, c := range id {
		seed = seed*31 + int(c)
	}
	if seed < 0 {
		seed = -seed
	}
	return seed
}

func drive(target string, tenants, decisions, base int) error {
	frames := decisions / (tenants * batch)
	if frames < 1 {
		frames = 1
	}
	dial := func() (*moeclient.Client, error) {
		if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
			return moeclient.DialHTTP(target, 5*time.Second)
		}
		return moeclient.Dial(target, 5*time.Second)
	}
	perTenant := make([]int64, tenants)
	var mu sync.Mutex
	errs := []string{} // non-nil: the smoke script reads it as a JSON array
	var wg sync.WaitGroup
	start := time.Now()
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			id := tenantID(ti)
			fail := func(format string, a ...any) {
				mu.Lock()
				errs = append(errs, fmt.Sprintf("tenant %s: ", id)+fmt.Sprintf(format, a...))
				mu.Unlock()
			}
			seed := tenantSeed(id)
			c, err := dial()
			if err != nil {
				fail("dial: %v", err)
				return
			}
			defer c.Close()
			done := make(chan error, 1)
			go func() {
				for f := 0; f < frames; f++ {
					resp, err := c.Recv()
					if err != nil {
						done <- fmt.Errorf("recv frame %d: %v", f, err)
						return
					}
					if resp.Err != nil {
						done <- fmt.Errorf("frame %d refused: %v", f, resp.Err)
						return
					}
					want := int64(base + (f+1)*batch)
					if resp.Decisions != want {
						done <- fmt.Errorf("frame %d acked decisions=%d, want %d", f, resp.Decisions, want)
						return
					}
					perTenant[ti] = resp.Decisions
				}
				done <- nil
			}()
			obs := make([]moe.Observation, batch)
			for f := 0; f < frames; f++ {
				for i := range obs {
					obs[i] = obsFor(seed, base+f*batch+i)
				}
				if err := c.Send(uint64(f), 0, id, "", obs); err != nil {
					fail("send frame %d: %v", f, err)
					return
				}
				if (f+1)%flushEvery == 0 {
					if err := c.Flush(); err != nil {
						fail("flush at frame %d: %v", f, err)
						return
					}
				}
			}
			if err := c.Flush(); err != nil {
				fail("final flush: %v", err)
				return
			}
			if err := <-done; err != nil {
				fail("%v", err)
			}
		}(ti)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var acked int64
	for _, n := range perTenant {
		acked += n - int64(base)
	}
	out, _ := json.Marshal(map[string]any{
		"tenants":           tenants,
		"frames_per_tenant": frames,
		"batch":             batch,
		"decisions_acked":   acked,
		"decisions_per_sec": float64(acked) / elapsed.Seconds(),
		"per_tenant":        perTenant,
		"errors":            errs,
	})
	fmt.Println(string(out))
	if len(errs) > 0 {
		return fmt.Errorf("%d tenant streams failed (first: %s)", len(errs), errs[0])
	}
	return nil
}
