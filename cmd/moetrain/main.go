// Command moetrain trains the mixture's experts on the simulator and
// prints the Table-1-style coefficient matrix plus cross-validation
// quality.
//
// Usage:
//
//	moetrain                 # default training setup (§5.1/§5.2)
//	moetrain -seed 7 -k 8    # different seed; eight-expert pool
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"moe/internal/experiments"
	"moe/internal/expert"
	"moe/internal/sim"
	"moe/internal/training"
)

func main() {
	seed := flag.Uint64("seed", 42, "training seed")
	k := flag.Int("k", 4, "expert pool size (1, 2, 4 or 8)")
	runs := flag.Int("runs", 0, "training runs per target (0 = default)")
	out := flag.String("o", "", "write the trained experts to this JSON file")
	workers := flag.Int("workers", 0, "concurrent training simulations (0 = GOMAXPROCS, 1 = serial); the dataset is identical for every setting")
	stepping := flag.String("stepping", "event", "simulation engine for training runs: event (event-horizon) or fixed (dt-by-dt reference); datasets agree within 1e-9")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	mode, err := sim.ParseSteppingMode(*stepping)
	if err != nil {
		fmt.Fprintf(os.Stderr, "moetrain: %v\n", err)
		os.Exit(2)
	}

	stopCPU := startCPUProfile(*cpuprofile)
	defer stopCPU()
	defer writeHeapProfile(*memprofile)

	start := time.Now()
	ds, err := training.Generate(training.Config{Seed: *seed, WorkloadsPerTarget: *runs, Workers: *workers, Stepping: mode})
	if err != nil {
		fmt.Fprintf(os.Stderr, "moetrain: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("generated %d training samples in %.1fs\n\n", ds.Len(), time.Since(start).Seconds())

	var set expert.Set
	switch *k {
	case 1:
		mono, err := training.BuildMonolithic(ds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "moetrain: %v\n", err)
			os.Exit(1)
		}
		set = expert.Set{mono}
	case 2:
		s2, err := training.BuildExperts2(ds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "moetrain: %v\n", err)
			os.Exit(1)
		}
		set = s2
	case 4:
		s4, err := training.BuildExperts4(ds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "moetrain: %v\n", err)
			os.Exit(1)
		}
		set = s4
	case 8:
		s8, err := training.BuildExperts8(ds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "moetrain: %v\n", err)
			os.Exit(1)
		}
		set = s8
	default:
		fmt.Fprintf(os.Stderr, "moetrain: unsupported pool size %d (want 1, 2, 4 or 8)\n", *k)
		os.Exit(2)
	}
	fmt.Println("experts:")
	for _, e := range set {
		fmt.Printf("  %s: %s\n", e.Name, e.TrainedOn)
	}
	fmt.Println()
	if *out != "" {
		if err := expert.SaveSet(set, *out); err != nil {
			fmt.Fprintf(os.Stderr, "moetrain: saving %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Printf("saved %d experts to %s\n\n", len(set), *out)
	}

	lab := experiments.NewLabFromData(ds)
	lab.Workers = *workers
	lab.Stepping = mode
	if *k == 4 {
		t, err := lab.CoefficientsTable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "moetrain: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(t.String())
		fmt.Println()
	}
	cv, err := lab.CrossValidation()
	if err != nil {
		fmt.Fprintf(os.Stderr, "moetrain: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(cv.String())
}

// startCPUProfile begins CPU profiling when path is non-empty and returns
// the stop function (a no-op otherwise). Error exits skip the deferred
// stop, which only costs the profile itself.
func startCPUProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "moetrain: cpuprofile: %v\n", err)
		os.Exit(1)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "moetrain: cpuprofile: %v\n", err)
		os.Exit(1)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// writeHeapProfile snapshots the heap to path when non-empty, after a GC so
// the profile reflects live objects rather than garbage.
func writeHeapProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "moetrain: memprofile: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "moetrain: memprofile: %v\n", err)
	}
}
