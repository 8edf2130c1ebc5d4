package main

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGateParksAndReleases checks that shut returns only once the looping
// client waits at the gate, that no request passes a shut gate, and that
// open releases it.
func TestGateParksAndReleases(t *testing.T) {
	var g gate
	var stop atomic.Bool
	var passed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			g.wait()
			passed.Add(1)
		}
	}()
	for round := 0; round < 20; round++ {
		g.shut()
		if !g.parked.Load() {
			t.Fatalf("round %d: shut returned before the client parked", round)
		}
		n := passed.Load()
		time.Sleep(time.Millisecond)
		if got := passed.Load(); got != n {
			t.Fatalf("round %d: %d requests passed a shut gate", round, got-n)
		}
		g.open()
		for m := passed.Load(); passed.Load() < m+10; {
			time.Sleep(10 * time.Microsecond)
		}
	}
	stop.Store(true)
	wg.Wait()
}
