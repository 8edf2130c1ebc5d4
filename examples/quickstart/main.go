// Quickstart: train a mixture of experts and use it to run a benchmark in
// a dynamic shared environment, comparing against the OpenMP default.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"moe"
)

func main() {
	// 1. Generate training data on the simulator (one target × one-to-few
	//    workload programs, thread counts varied, 12- and 32-core
	//    platforms — the paper's §5.2 methodology). A fixed seed makes
	//    everything reproducible. Takes a minute or two.
	fmt.Println("training…")
	data, err := moe.Train(moe.TrainingConfig{Seed: 1, WorkloadsPerTarget: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d labelled samples\n", data.Len())

	// 2. Build the paper's four experts (scalable/non-scalable programs ×
	//    12/32-core platforms) and the mixture policy over them.
	experts, err := moe.BuildExperts(data, 4)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range experts {
		fmt.Printf("  %s trained on %s\n", e.Name, e.TrainedOn)
	}
	mixture, err := moe.NewTrainedMixture(data, experts)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Run the lu benchmark while mg loops beside it and processors
	//    come and go — once under the OpenMP default, once under the
	//    mixture. The same seed replays identical external conditions.
	scenario := moe.Simulation{
		Target:    "lu",
		Workload:  []string{"mg"},
		Frequency: moe.LowFrequency,
		Seed:      7,
	}
	scenario.Policy = moe.NewDefaultPolicy()
	base, err := moe.Simulate(scenario)
	if err != nil {
		log.Fatal(err)
	}
	scenario.Policy = mixture
	tuned, err := moe.Simulate(scenario)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nlu co-executing with mg under hardware churn:\n")
	fmt.Printf("  OpenMP default: %7.1f s\n", base.ExecTime)
	fmt.Printf("  mixture       : %7.1f s  → %.2fx speedup\n",
		tuned.ExecTime, base.ExecTime/tuned.ExecTime)

	st := mixture.Snapshot()
	fmt.Printf("  expert selection:")
	for i, frac := range st.SelectionFraction {
		fmt.Printf(" E%d=%.0f%%", i+1, 100*frac)
	}
	fmt.Printf("\n  environment-prediction accuracy: %.0f%%\n", 100*st.MixtureEnvAccuracy)
}
