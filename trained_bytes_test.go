package moe_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"moe"
	"moe/internal/expert"
	"moe/internal/sim"
)

// trainedSetSHA256 is the digest of the four-expert set trained from seed 7
// on the paper's platforms. Every least-squares fit behind it — thread
// predictors, speedup surfaces, the environment dimensions and their
// residual scales — must reproduce the same bits, so a change to how fits
// are accumulated or solved that moves even one coefficient fails here.
const trainedSetSHA256 = "95408e4a2183a9c2625c51429a14dbf5553439ca80142fe247d088fc0d2c4e87"

func TestTrainedSetBytes(t *testing.T) {
	ds, err := moe.Train(moe.TrainingConfig{Seed: 7, Workers: 1, Stepping: sim.SteppingEvent})
	if err != nil {
		t.Fatal(err)
	}
	set, err := moe.BuildExperts(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := expert.MarshalSet(set)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != trainedSetSHA256 {
		t.Fatalf("trained expert set sha256 = %s, want %s", got, trainedSetSHA256)
	}
}
