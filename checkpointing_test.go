package moe_test

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"moe"
)

const ckptMaxThreads = 8

// ckptObservation builds the i-th observation of a deterministic synthetic
// stream with drifting features, periodic availability dips, and a wobbling
// rate — enough signal that every stateful policy keeps learning.
func ckptObservation(i int) moe.Observation {
	var f moe.Features
	for j := range f {
		f[j] = 0.15*float64(j+1) + 0.02*float64((i*7+j*3)%11)
	}
	avail := ckptMaxThreads
	if i%9 >= 6 {
		avail = ckptMaxThreads / 2
	}
	f[4] = float64(avail) // f5: processors
	return moe.Observation{
		Time:           0.25 * float64(i),
		Features:       f,
		Rate:           100 + 8*math.Sin(float64(i)/3),
		RegionStart:    i%4 == 0,
		AvailableProcs: avail,
	}
}

// ckptPolicies enumerates every checkpointable built-in policy kind.
func ckptPolicies(t *testing.T) map[string]func() moe.Policy {
	t.Helper()
	return map[string]func() moe.Policy{
		"mixture": func() moe.Policy {
			m, err := moe.NewMixture(moe.CanonicalExperts())
			if err != nil {
				t.Fatalf("NewMixture: %v", err)
			}
			return m
		},
		"online":   moe.NewOnlinePolicy,
		"analytic": func() moe.Policy { return moe.NewAnalyticPolicy(7) },
		"default":  moe.NewDefaultPolicy,
	}
}

func newCkptRuntime(t *testing.T, build func() moe.Policy) *moe.Runtime {
	t.Helper()
	rt, err := moe.NewRuntime(build(), ckptMaxThreads)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	return rt
}

// TestRuntimeRestartGolden is the golden restart test: a run that crashes
// at an arbitrary point and resumes from its checkpoint directory must
// produce exactly the decision trace of a run that never crashed — for
// every checkpointable policy, with periodic snapshots and journal
// rotation in play.
func TestRuntimeRestartGolden(t *testing.T) {
	const total, crashAt = 60, 37
	for name, build := range ckptPolicies(t) {
		t.Run(name, func(t *testing.T) {
			// The uninterrupted reference run.
			ref := newCkptRuntime(t, build)
			want := make([]int, total)
			for i := 0; i < total; i++ {
				want[i] = ref.Decide(ckptObservation(i))
			}
			refState, err := ref.Snapshot()
			if err != nil {
				t.Fatalf("reference snapshot: %v", err)
			}

			// The crashing run: checkpoint every 10 decisions, die at 37.
			dir := t.TempDir()
			store, err := moe.OpenCheckpoint(dir)
			if err != nil {
				t.Fatalf("OpenCheckpoint: %v", err)
			}
			crashed := newCkptRuntime(t, build)
			if err := crashed.AttachStore(store, 10); err != nil {
				t.Fatalf("AttachStore: %v", err)
			}
			got := make([]int, 0, total)
			for i := 0; i < crashAt; i++ {
				got = append(got, crashed.Decide(ckptObservation(i)))
			}
			if err := crashed.CheckpointErr(); err != nil {
				t.Fatalf("checkpointing failed mid-run: %v", err)
			}
			// Crash: the process is gone; nobody calls Close.

			// The resumed run.
			store2, err := moe.OpenCheckpoint(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			resumed := newCkptRuntime(t, build)
			rec, err := resumed.Resume(store2)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			if resumed.Decisions() != crashAt {
				t.Fatalf("resumed to %d decisions, want %d\nreport: %v", resumed.Decisions(), crashAt, rec.Report)
			}
			if err := resumed.AttachStore(store2, 10); err != nil {
				t.Fatalf("re-AttachStore: %v", err)
			}
			for i := crashAt; i < total; i++ {
				got = append(got, resumed.Decide(ckptObservation(i)))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("decision %d diverged: crashed+resumed chose %d, uninterrupted chose %d", i, got[i], want[i])
				}
			}

			// Bit-identical internal state, not just identical outputs: the
			// resumed runtime's snapshot must encode to exactly the bytes of
			// the uninterrupted run's snapshot.
			resState, err := resumed.Snapshot()
			if err != nil {
				t.Fatalf("resumed snapshot: %v", err)
			}
			refBytes := encodeStateForTest(t, refState)
			resBytes := encodeStateForTest(t, resState)
			if string(refBytes) != string(resBytes) {
				t.Fatal("resumed state is not bit-identical to the uninterrupted state")
			}
		})
	}
}

// TestRuntimeRestartEvolvingPool is the restart golden test for a LIVING
// pool: the crash window straddles lifecycle steps, so resume must rebuild
// evolved pool members from the snapshot's serialized genomes and then
// replay journal observations THROUGH further births — pool changes and
// all — to land bit-identical to the uninterrupted run.
func TestRuntimeRestartEvolvingPool(t *testing.T) {
	const total, crashAt = 60, 37
	cfg := moe.EvolutionConfig{Period: 7, Seed: 5, MinAge: 14, MinPool: 2}
	build := func() moe.Policy {
		m, err := moe.NewEvolvingMixture(moe.CanonicalExperts(), cfg)
		if err != nil {
			t.Fatalf("NewEvolvingMixture: %v", err)
		}
		return m
	}

	refMix := build().(*moe.Mixture)
	ref, err := moe.NewRuntime(refMix, ckptMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, total)
	for i := 0; i < total; i++ {
		want[i] = ref.Decide(ckptObservation(i))
	}
	if refMix.Snapshot().PoolEpoch == 0 {
		t.Fatal("no pool changes in the reference run; the restart test is vacuous")
	}
	refState, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Crash at 37 with snapshots every 10: the last snapshot (30) already
	// holds evolved members, and the journal tail (31..37) crosses the
	// lifecycle step at 35.
	dir := t.TempDir()
	store, err := moe.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	crashed := newCkptRuntime(t, build)
	if err := crashed.AttachStore(store, 10); err != nil {
		t.Fatal(err)
	}
	got := make([]int, 0, total)
	for i := 0; i < crashAt; i++ {
		got = append(got, crashed.Decide(ckptObservation(i)))
	}
	if err := crashed.CheckpointErr(); err != nil {
		t.Fatalf("checkpointing failed mid-run: %v", err)
	}

	store2, err := moe.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed := newCkptRuntime(t, build)
	if _, err := resumed.Resume(store2); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if resumed.Decisions() != crashAt {
		t.Fatalf("resumed to %d decisions, want %d", resumed.Decisions(), crashAt)
	}
	for i := crashAt; i < total; i++ {
		got = append(got, resumed.Decide(ckptObservation(i)))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decision %d diverged: crashed+resumed chose %d, uninterrupted chose %d", i, got[i], want[i])
		}
	}
	resState, err := resumed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(encodeStateForTest(t, refState)) != string(encodeStateForTest(t, resState)) {
		t.Fatal("resumed evolving state is not bit-identical to the uninterrupted state")
	}
}

// TestRuntimeResumePoolMismatchTyped: resuming an evolving run into a
// runtime whose mixture was built with evolution disabled fails with the
// typed pool-mismatch error instead of silently mis-sizing the pool.
func TestRuntimeResumePoolMismatchTyped(t *testing.T) {
	dir := t.TempDir()
	store, err := moe.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := moe.NewEvolvingMixture(moe.CanonicalExperts(), moe.EvolutionConfig{Period: 5, MinAge: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := moe.NewRuntime(mix, ckptMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.AttachStore(store, 5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		rt.Decide(ckptObservation(i))
	}
	if err := rt.CheckpointErr(); err != nil {
		t.Fatal(err)
	}
	if mix.Snapshot().PoolEpoch == 0 {
		t.Fatal("no pool changes; mismatch test is vacuous")
	}

	store2, err := moe.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := moe.NewMixture(moe.CanonicalExperts())
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := moe.NewRuntime(frozen, ckptMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt2.Resume(store2); err == nil {
		t.Fatal("frozen runtime resumed an evolving checkpoint")
	} else if !errors.Is(err, moe.ErrPoolMismatch) {
		t.Fatalf("err = %v, want ErrPoolMismatch", err)
	}
}

// encodeStateForTest round-trips a state through a store to obtain its
// canonical snapshot bytes (the public API deliberately hides the codec).
func encodeStateForTest(t *testing.T, st *moe.RuntimeState) []byte {
	t.Helper()
	dir := t.TempDir()
	s, err := moe.OpenCheckpoint(dir)
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}
	if err := s.WriteSnapshot(st); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
	}
	t.Fatal("no snapshot file written")
	return nil
}

// TestRuntimeRestartTruncatedJournal truncates the journal at every byte
// offset before resuming; whatever decision count survives, feeding the
// remaining observations must reproduce the uninterrupted run exactly.
func TestRuntimeRestartTruncatedJournal(t *testing.T) {
	const total, crashAt = 40, 25
	m, err := moe.NewMixture(moe.CanonicalExperts())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := moe.NewRuntime(m, ckptMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, total)
	for i := 0; i < total; i++ {
		want[i] = ref.Decide(ckptObservation(i))
	}

	// One journal holds the whole run: no periodic snapshots.
	masterDir := t.TempDir()
	store, err := moe.OpenCheckpoint(masterDir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := moe.NewMixture(moe.CanonicalExperts())
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := moe.NewRuntime(m2, ckptMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	if err := crashed.AttachStore(store, 0); err != nil {
		t.Fatalf("AttachStore: %v", err)
	}
	for i := 0; i < crashAt; i++ {
		crashed.Decide(ckptObservation(i))
	}
	if err := crashed.CheckpointErr(); err != nil {
		t.Fatalf("checkpointing failed: %v", err)
	}

	entries, err := os.ReadDir(masterDir)
	if err != nil {
		t.Fatal(err)
	}
	var journalName string
	var master [][2]string // name, contents of every checkpoint file
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(masterDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		master = append(master, [2]string{e.Name(), string(data)})
		if strings.HasSuffix(e.Name(), ".wal") {
			journalName = e.Name()
		}
	}
	if journalName == "" {
		t.Fatal("no journal file found")
	}

	journal := ""
	for _, f := range master {
		if f[0] == journalName {
			journal = f[1]
		}
	}
	for cut := 0; cut <= len(journal); cut += 1 {
		dir := t.TempDir()
		for _, f := range master {
			contents := f[1]
			if f[0] == journalName {
				contents = journal[:cut]
			}
			if err := os.WriteFile(filepath.Join(dir, f[0]), []byte(contents), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := moe.OpenCheckpoint(dir)
		if err != nil {
			t.Fatalf("cut %d: OpenCheckpoint: %v", cut, err)
		}
		m3, err := moe.NewMixture(moe.CanonicalExperts())
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := moe.NewRuntime(m3, ckptMaxThreads)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := resumed.Resume(s); err != nil {
			t.Fatalf("cut %d: Resume: %v", cut, err)
		}
		d := resumed.Decisions()
		if d > crashAt {
			t.Fatalf("cut %d: recovered %d decisions from a %d-decision run", cut, d, crashAt)
		}
		for i := d; i < total; i++ {
			if got := resumed.Decide(ckptObservation(i)); got != want[i] {
				t.Fatalf("cut %d: decision %d diverged after recovery at %d", cut, i, d)
			}
		}
	}
}

func TestRuntimeResumeMismatchedPolicy(t *testing.T) {
	dir := t.TempDir()
	store, err := moe.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	rt := newCkptRuntime(t, moe.NewOnlinePolicy)
	if err := rt.AttachStore(store, 5); err != nil {
		t.Fatalf("AttachStore: %v", err)
	}
	for i := 0; i < 12; i++ {
		rt.Decide(ckptObservation(i))
	}

	store2, err := moe.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	other := newCkptRuntime(t, moe.NewDefaultPolicy)
	if _, err := other.Resume(store2); err == nil {
		t.Fatal("online checkpoint resumed into a default-policy runtime")
	}
}

func TestRuntimeResumeRequiresFreshRuntime(t *testing.T) {
	dir := t.TempDir()
	store, err := moe.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	rt := newCkptRuntime(t, moe.NewOnlinePolicy)
	rt.Decide(ckptObservation(0))
	if _, err := rt.Resume(store); err == nil {
		t.Fatal("Resume accepted a runtime that had already decided")
	}
}

// TestRuntimeCheckpointErrDoesNotBlockDecisions: when the checkpoint
// directory disappears mid-run, the error is latched and decisions keep
// flowing from memory.
func TestRuntimeCheckpointErrDoesNotBlockDecisions(t *testing.T) {
	dir := t.TempDir()
	store, err := moe.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	rt := newCkptRuntime(t, moe.NewOnlinePolicy)
	if err := rt.AttachStore(store, 1); err != nil { // snapshot every decision
		t.Fatalf("AttachStore: %v", err)
	}
	rt.Decide(ckptObservation(0))
	if err := rt.CheckpointErr(); err != nil {
		t.Fatalf("healthy store errored: %v", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	// The snapshot write must fail now; the decision must not.
	for i := 1; i < 4; i++ {
		if n := rt.Decide(ckptObservation(i)); n < 1 || n > ckptMaxThreads {
			t.Fatalf("decision %d out of range after store loss", n)
		}
	}
	if rt.CheckpointErr() == nil {
		t.Fatal("store loss was never reported")
	}
	if rt.Decisions() != 4 {
		t.Fatalf("decisions = %d, want 4", rt.Decisions())
	}
}

func TestRuntimeAttachStoreTwice(t *testing.T) {
	rt := newCkptRuntime(t, moe.NewOnlinePolicy)
	s1, err := moe.OpenCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.AttachStore(s1, 5); err != nil {
		t.Fatal(err)
	}
	s2, err := moe.OpenCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.AttachStore(s2, 5); err == nil {
		t.Fatal("second AttachStore accepted")
	}
}

func TestRuntimeRestoreRejectsMismatchedCap(t *testing.T) {
	rt := newCkptRuntime(t, moe.NewOnlinePolicy)
	for i := 0; i < 5; i++ {
		rt.Decide(ckptObservation(i))
	}
	st, err := rt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	other, err := moe.NewRuntime(moe.NewOnlinePolicy(), ckptMaxThreads*2)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(st); err == nil {
		t.Fatal("state restored onto a machine with a different thread cap")
	}
}

// TestRuntimeRestoreRejectsOutOfRangeBin: every decision is clamped into
// [1, maxThreads], so a state carrying a thread-histogram bin past the cap
// is corrupt. Restore must refuse it and leave the runtime unchanged rather
// than size the histogram by the bin (a bin near 1<<40 would exhaust
// memory at resume).
func TestRuntimeRestoreRejectsOutOfRangeBin(t *testing.T) {
	rt := newCkptRuntime(t, moe.NewOnlinePolicy)
	for i := 0; i < 5; i++ {
		rt.Decide(ckptObservation(i))
	}
	st, err := rt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st.Hist[ckptMaxThreads+1] = 1
	other := newCkptRuntime(t, moe.NewOnlinePolicy)
	if err := other.Restore(st); err == nil {
		t.Fatalf("state with histogram bin %d restored onto a %d-thread runtime", ckptMaxThreads+1, ckptMaxThreads)
	}
	if other.Decisions() != 0 || len(other.ThreadHistogram()) != 0 {
		t.Fatalf("rejected Restore changed the runtime: %d decisions, histogram %v",
			other.Decisions(), other.ThreadHistogram())
	}
}

// TestRuntimeFreshAttachOverOldHistory: attaching a fresh runtime (no
// Resume) to a directory holding an abandoned run's longer history starts a
// new timeline. A crash before the first periodic snapshot must resume to
// the new timeline's decisions — not silently resurrect the old run's
// state and journal.
func TestRuntimeFreshAttachOverOldHistory(t *testing.T) {
	dir := t.TempDir()

	// Abandoned run: 30 decisions with periodic snapshots, then a crash.
	store, err := moe.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := newCkptRuntime(t, moe.NewOnlinePolicy)
	if err := old.AttachStore(store, 10); err != nil {
		t.Fatalf("AttachStore: %v", err)
	}
	for i := 0; i < 30; i++ {
		old.Decide(ckptObservation(i))
	}
	if err := old.CheckpointErr(); err != nil {
		t.Fatalf("checkpointing failed: %v", err)
	}

	// New run: deliberately fresh (no Resume), one decision, crash.
	store2, err := moe.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	fresh := newCkptRuntime(t, moe.NewOnlinePolicy)
	if err := fresh.AttachStore(store2, 10); err != nil {
		t.Fatalf("fresh AttachStore: %v", err)
	}
	fresh.Decide(ckptObservation(0))
	if err := fresh.CheckpointErr(); err != nil {
		t.Fatalf("checkpointing failed: %v", err)
	}

	// Resume must land on the new timeline.
	store3, err := moe.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed := newCkptRuntime(t, moe.NewOnlinePolicy)
	rec, err := resumed.Resume(store3)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if resumed.Decisions() != 1 {
		t.Fatalf("resumed to %d decisions, want the new run's 1\nreport: %v", resumed.Decisions(), rec.Report)
	}

	// And its state must be bit-identical to a 1-decision uninterrupted run.
	ref := newCkptRuntime(t, moe.NewOnlinePolicy)
	ref.Decide(ckptObservation(0))
	refState, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resState, err := resumed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(encodeStateForTest(t, refState)) != string(encodeStateForTest(t, resState)) {
		t.Fatal("resumed state is not bit-identical to a fresh 1-decision run")
	}
}
