package serve

import (
	"bufio"
	"fmt"
	"net"
	"testing"

	"moe"
	"moe/internal/wire"
)

// BenchmarkStreamSession drives the whole serving pipeline in process:
// wire frames of 1 and of 16 observations, pipelined sixteen at a time
// through one session — decode loop, admission, the tenant coalescer, one
// merged DecideBatch per group, commit, the ordered writer — and back. The
// client encodes into and parses from reused buffers, so what allocates
// is the server. One op is one frame.
func BenchmarkStreamSession(b *testing.B) {
	for _, size := range []int{1, 16} {
		b.Run(fmt.Sprintf("obs=%d", size), func(b *testing.B) { benchStreamSession(b, size) })
	}
}

func benchStreamSession(b *testing.B, size int) {
	const window = 16
	srv, err := NewServer(Config{MaxThreads: testMaxThreads})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.runSession(server, bufio.NewReaderSize(server, 64<<10), bufio.NewWriterSize(server, 64<<10))
	}()
	defer func() {
		client.Close()
		<-done
	}()
	bw := bufio.NewWriterSize(client, 64<<10)
	rd := wire.NewReader(bufio.NewReaderSize(client, 64<<10))
	if _, err := bw.Write(wire.AppendHello(nil)); err != nil {
		b.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		b.Fatal(err)
	}
	if kind, _, _, err := rd.Next(); err != nil || kind != wire.FrameHello {
		b.Fatalf("handshake: kind %#x, %v", kind, err)
	}

	// One lap of the tenant's stream, replayed with its clock shifted
	// forward each lap so time stays monotone.
	lap := tenantStream("bench", 0, 4096)
	span := lap[len(lap)-1].Time + 0.25
	obs := make([]moe.Observation, size)
	pos := 0
	next := func() []moe.Observation {
		for i := range obs {
			obs[i] = lap[pos%len(lap)]
			obs[i].Time += span * float64(pos/len(lap))
			pos++
		}
		return obs
	}
	var frame []byte
	var res wire.Result
	roundTrip := func(frames int) {
		for i := 0; i < frames; i++ {
			frame = wire.AppendDecide(frame[:0], uint64(i), 0, "bench", "", next())
			if _, err := bw.Write(frame); err != nil {
				b.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < frames; i++ {
			kind, payload, _, err := rd.Next()
			if err != nil {
				b.Fatal(err)
			}
			if kind != wire.FrameResult {
				b.Fatalf("frame %d: kind %#x, want a result", i, kind)
			}
			if err := wire.ParseResult(payload, &res); err != nil {
				b.Fatal(err)
			}
			if res.Seq != uint64(i) || len(res.Threads) != size {
				b.Fatalf("frame %d: seq %d with %d threads, want seq %d with %d", i, res.Seq, len(res.Threads), i, size)
			}
		}
	}
	for i := 0; i < 4; i++ {
		roundTrip(window) // build the tenant's core and grow every buffer
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += window {
		roundTrip(min(window, b.N-n))
	}
}
