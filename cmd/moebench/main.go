// Command moebench regenerates the paper's tables and figures on the
// simulator substrate.
//
// Usage:
//
//	moebench -experiment fig8            # one experiment
//	moebench -all                        # everything
//	moebench -all -full                  # full scale (all programs, 3 repeats)
//	moebench -chaos                      # fault-injection robustness study
//	moebench -experiment restart         # crash-recovery (warm vs cold) study
//	moebench -list                       # show available experiment ids
//
// Training runs once per invocation (deterministic, ~1–3 minutes at default
// scale) and is shared by all requested experiments.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"moe/internal/experiments"
	"moe/internal/sim"
	"moe/internal/trace"
	"moe/internal/training"
	"moe/internal/workload"
)

type runner func(lab *experiments.Lab, sc experiments.Scale) (*experiments.Table, error)

var registry = map[string]runner{
	"table1": func(l *experiments.Lab, _ experiments.Scale) (*experiments.Table, error) {
		return l.CoefficientsTable()
	},
	"fig1": func(_ *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return experiments.LiveTraceSummary(sc.Seed)
	},
	"fig2": nil, // handled specially (timeline output)
	"fig3": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		_, t, err := l.Motivation(sc.Seed)
		return t, err
	},
	"fig6": func(l *experiments.Lab, _ experiments.Scale) (*experiments.Table, error) {
		return l.FeatureImpact()
	},
	"fig7": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.Static(sc)
	},
	"fig8": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.Summary(sc)
	},
	"fig9": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.DynamicScenario(workload.Small, trace.LowFrequency, sc)
	},
	"fig10": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.DynamicScenario(workload.Small, trace.HighFrequency, sc)
	},
	"fig11": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.DynamicScenario(workload.Large, trace.LowFrequency, sc)
	},
	"fig12": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.DynamicScenario(workload.Large, trace.HighFrequency, sc)
	},
	"fig13a": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.WorkloadImpact(sc)
	},
	"fig13b": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.AdaptivePairs(sc)
	},
	"fig14a": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.LiveStudy(sc)
	},
	"fig14b": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.Affinity(sc)
	},
	"fig14c": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.MonolithicVsMixture(sc)
	},
	"fig15a": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.EnvAccuracy(sc)
	},
	"fig15b": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.SelectionFrequency(sc)
	},
	"fig15c": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.NumExperts(sc)
	},
	"fig16": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.Granularity(sc)
	},
	"fig17": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.ThreadDistribution(sc)
	},
	"cv": func(l *experiments.Lab, _ experiments.Scale) (*experiments.Table, error) {
		return l.CrossValidation()
	},
	"ablation-gating": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.AblationGating(sc)
	},
	"ablation-features": func(l *experiments.Lab, _ experiments.Scale) (*experiments.Table, error) {
		return l.AblationFeatures()
	},
	"portability": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.Portability(sc)
	},
	"churn": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.Churn(sc)
	},
	"chaos": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.ChaosStudy(sc)
	},
	"restart": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.RestartStudy(sc)
	},
	"telemetry": func(l *experiments.Lab, sc experiments.Scale) (*experiments.Table, error) {
		return l.TelemetryStudy(sc)
	},
	"serve": func(_ *experiments.Lab, _ experiments.Scale) (*experiments.Table, error) {
		rep, err := runServe(defaultServeOpts())
		if err != nil {
			return nil, err
		}
		return serveTable(rep), nil
	},
	"stream": func(_ *experiments.Lab, _ experiments.Scale) (*experiments.Table, error) {
		rep, err := runStream(defaultStreamOpts())
		if err != nil {
			return nil, err
		}
		return streamTable(rep), nil
	},
	"replica": func(_ *experiments.Lab, _ experiments.Scale) (*experiments.Table, error) {
		rep, err := runReplica(defaultReplicaOpts())
		if err != nil {
			return nil, err
		}
		return replicaTable(rep), nil
	},
	"evolve": func(_ *experiments.Lab, _ experiments.Scale) (*experiments.Table, error) {
		rep, err := experiments.RunEvolveStudy(experiments.DefaultEvolveOptions())
		if err != nil {
			return nil, err
		}
		return experiments.EvolveStudyTable(rep), nil
	},
}

// order fixes the -all presentation sequence.
var order = []string{
	"table1", "fig1", "fig2", "fig3", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13a", "fig13b", "fig14a", "fig14b",
	"fig14c", "fig15a", "fig15b", "fig15c", "fig16", "fig17", "cv",
	"ablation-gating", "ablation-features", "portability", "churn",
	"chaos", "restart", "telemetry", "serve", "stream",
	"replica", "evolve",
}

func main() {
	experiment := flag.String("experiment", "", "experiment id (see -list)")
	all := flag.Bool("all", false, "run every experiment")
	full := flag.Bool("full", false, "full scale: all 16 programs, 3 repeats")
	list := flag.Bool("list", false, "list experiment ids")
	seed := flag.Uint64("seed", 42, "training/evaluation seed")
	chart := flag.Bool("chart", false, "render tables as bar charts")
	workers := flag.Int("workers", 0, "concurrent scenario evaluations (0 = GOMAXPROCS, 1 = serial); output is identical for every setting")
	chaosFlag := flag.Bool("chaos", false, "shorthand for -experiment chaos (fault-injection robustness study)")
	stepping := flag.String("stepping", "event", "simulation engine: event (event-horizon) or fixed (dt-by-dt reference); observables agree within 1e-9")
	benchJSON := flag.String("bench-json", "", "measure both engines on the canonical scenario, write the JSON report to this path, and exit")
	serveJSON := flag.String("serve-json", "", "run the multi-tenant daemon chaos-load study, write the JSON report to this path, and exit")
	streamJSON := flag.String("stream-json", "", "run the transport study (json vs ndjson vs wire, plus journal group commit), write the JSON report to this path, and exit")
	streamDrive := flag.String("stream-drive", "", "client mode: stream -stream-decisions across -stream-tenants wire sessions against this moed base URL, print a JSON summary, and exit")
	streamTenants := flag.Int("stream-tenants", 8, "tenant sessions for -stream-drive")
	streamDecisions := flag.Int("stream-decisions", 10000, "total decisions for -stream-drive")
	streamBase := flag.Int("stream-base", 0, "per-tenant decisions already served (resume check for -stream-drive; responses must count up from it)")
	replicaJSON := flag.String("replica-json", "", "run the hot-standby replication study (throughput on vs off, lag, failover), write the JSON report to this path, and exit")
	evolveJSON := flag.String("evolve-json", "", "run the living-vs-frozen pool drift study, write the JSON report to this path, and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	mode, err := sim.ParseSteppingMode(*stepping)
	if err != nil {
		fmt.Fprintf(os.Stderr, "moebench: %v\n", err)
		os.Exit(2)
	}

	stopCPU := startCPUProfile(*cpuprofile)
	defer stopCPU()
	defer writeHeapProfile(*memprofile)

	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON); err != nil {
			fmt.Fprintf(os.Stderr, "moebench: bench: %v\n", err)
			stopCPU()
			os.Exit(1)
		}
		return
	}

	if *serveJSON != "" {
		if err := writeServeJSON(*serveJSON); err != nil {
			fmt.Fprintf(os.Stderr, "moebench: serve: %v\n", err)
			stopCPU()
			os.Exit(1)
		}
		return
	}

	if *streamJSON != "" {
		if err := writeStreamJSON(*streamJSON); err != nil {
			fmt.Fprintf(os.Stderr, "moebench: stream: %v\n", err)
			stopCPU()
			os.Exit(1)
		}
		return
	}

	if *streamDrive != "" {
		if err := driveStream(*streamDrive, *streamTenants, *streamDecisions, *streamBase); err != nil {
			fmt.Fprintf(os.Stderr, "moebench: stream-drive: %v\n", err)
			stopCPU()
			os.Exit(1)
		}
		return
	}

	if *replicaJSON != "" {
		if err := writeReplicaJSON(*replicaJSON); err != nil {
			fmt.Fprintf(os.Stderr, "moebench: replica: %v\n", err)
			stopCPU()
			os.Exit(1)
		}
		return
	}

	if *evolveJSON != "" {
		if err := writeEvolveJSON(*evolveJSON); err != nil {
			fmt.Fprintf(os.Stderr, "moebench: evolve: %v\n", err)
			stopCPU()
			os.Exit(1)
		}
		return
	}

	// The serve, stream, and evolve studies need no trained lab; serve them
	// before the training step when one is the only request.
	if !*all && (*experiment == "serve" || *experiment == "stream" || *experiment == "evolve") && !*list {
		t, err := registry[*experiment](nil, experiments.QuickScale())
		if err != nil {
			fmt.Fprintf(os.Stderr, "moebench: %s failed: %v\n", *experiment, err)
			stopCPU()
			os.Exit(1)
		}
		if *chart {
			fmt.Print(t.Chart())
		} else {
			fmt.Print(t.String())
		}
		return
	}

	if *chaosFlag && !*all {
		*experiment = "chaos"
	}

	if *list {
		ids := make([]string, 0, len(registry))
		for id := range registry {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}
	if !*all && *experiment == "" {
		fmt.Fprintln(os.Stderr, "moebench: need -experiment <id> or -all (use -list for ids)")
		os.Exit(2)
	}
	if !*all {
		if _, ok := registry[*experiment]; !ok {
			fmt.Fprintf(os.Stderr, "moebench: unknown experiment %q (use -list)\n", *experiment)
			os.Exit(2)
		}
	}

	sc := experiments.QuickScale()
	if *full {
		sc = experiments.FullScale()
	}
	sc.Seed = *seed

	fmt.Fprintf(os.Stderr, "moebench: training experts (seed %d)…\n", *seed)
	start := time.Now()
	lab, err := experiments.NewLab(training.Config{Seed: *seed, Workers: *workers})
	if err != nil {
		fmt.Fprintf(os.Stderr, "moebench: training failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "moebench: trained in %.1fs (%d samples)\n",
		time.Since(start).Seconds(), lab.DS.Len())
	lab.Stepping = mode

	ids := []string{*experiment}
	if *all {
		ids = order
	}
	for _, id := range ids {
		start := time.Now()
		if id == "fig2" {
			points, _, err := lab.Motivation(sc.Seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "moebench: fig2 failed: %v\n", err)
				os.Exit(1)
			}
			fmt.Println("== Fig 2 — motivation timeline (lu vs mg) ==")
			if *chart {
				fmt.Print(experiments.TimelineSparklines(points))
			} else {
				fmt.Print(experiments.FormatTimeline(points, 12))
			}
		} else {
			t, err := registry[id](lab, sc)
			if err != nil {
				fmt.Fprintf(os.Stderr, "moebench: %s failed: %v\n", id, err)
				os.Exit(1)
			}
			if *chart {
				fmt.Print(t.Chart())
			} else {
				fmt.Print(t.String())
			}
		}
		fmt.Fprintf(os.Stderr, "moebench: %s done in %.1fs\n", id, time.Since(start).Seconds())
		fmt.Println()
	}
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
		fmt.Fprintf(os.Stderr, "moebench: cpuprofile: %v\n", err)
		os.Exit(1)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "moebench: cpuprofile: %v\n", err)
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
		fmt.Fprintf(os.Stderr, "moebench: memprofile: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "moebench: memprofile: %v\n", err)
	}
}
