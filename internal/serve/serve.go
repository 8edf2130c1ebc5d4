// Package serve is the multi-tenant decision daemon: it hosts many
// independent tenant runtimes — each a full moe.Runtime with its own
// checkpoint lineage under a per-tenant directory and its own telemetry
// label set — behind one serving pipeline, and wraps them in a robustness
// envelope so no tenant can take the service, or any other tenant, down
// with it.
//
// Every transport — a JSON body or NDJSON line on POST /v1/decide, a wire
// frame or a demoted JSON line on a stream session — is a codec in front
// of the same pipeline (pipeline.go): admission, validation, then the
// tenant's coalescer, whose flusher serves whatever is pending as one
// group through one Runtime.DecideBatch. A lone JSON request is a
// one-member group.
//
// The envelope, outermost first (DESIGN.md §13):
//
//   - Admission control: a token bucket sheds sustained overload with
//     429 + Retry-After; a fixed slot pool bounds concurrent decision
//     requests and sheds the excess with 503. Shedding is explicit and
//     counted (serve_shed_total{reason}).
//   - Deadlines: every request carries a deadline (X-Deadline-Ms or the
//     frame's deadline, capped); its waiter answers 504 when it passes and
//     counts the miss once (serve_deadline_exceeded_total), whether the
//     request was queued behind a slow tenant or the tenant wedged
//     mid-decision.
//   - Per-tenant circuit breaker: a panic in one tenant's decision path is
//     recovered, quarantines that tenant with exponential backoff, and
//     re-admits it through probation — the tenant-granularity mirror of
//     the per-expert quarantine ladder in internal/core/health.go. Other
//     tenants never observe any of it.
//   - Watchdog: a tenant whose in-flight decision makes no progress past
//     the wedge budget is recycled — its generation abandoned, a fresh
//     runtime resumed from its last checkpoint on the next request.
//   - Graceful drain: stop admitting, flush in-flight batches, checkpoint
//     every tenant, all within a bounded window (cmd/moed wires SIGTERM to
//     it and exits 0 on a clean drain).
//
// Decisions are byte-identical to a solo Runtime fed the same observation
// stream, however requests were grouped, which is how the isolation tests
// prove fault containment.
package serve

import (
	"fmt"
	"time"

	"moe"
	"moe/internal/atomicio"
	"moe/internal/telemetry"
)

// Config tunes a Server. The zero value of every field selects a sensible
// default (see the constants below); Rate 0 disables the token bucket.
type Config struct {
	// MaxThreads is the machine cap every tenant runtime is built with.
	MaxThreads int

	// PolicyBuild constructs the policy for a new tenant generation. It
	// must return a fresh policy per call — policies are stateful online
	// learners. Nil selects DefaultPolicyBuild (the canonical 4-expert
	// mixture).
	PolicyBuild func(tenant string) (moe.Policy, error)

	// CheckpointRoot is the directory holding one checkpoint lineage
	// subdirectory per tenant; empty disables persistence (tenants are
	// ephemeral).
	CheckpointRoot string
	// CheckpointEvery is the snapshot cadence in decisions (0 = journal
	// only).
	CheckpointEvery int
	// CheckpointSync fsyncs every journal append. Off by default: the
	// daemon trades the journal tail in the page cache for serving
	// throughput; snapshots stay atomic and fsynced either way.
	CheckpointSync bool
	// GroupCommitWindow, with CheckpointSync on, amortizes journal fsyncs:
	// appends defer the fsync and every batch commits through one shared
	// fsync per flush window (commit-before-ack unchanged — the sync still
	// happens before any ack leaves). Zero keeps per-append fsync.
	GroupCommitWindow time.Duration

	// MaxTenants bounds the registry; creation past it sheds with 503.
	MaxTenants int
	// MaxInflight bounds concurrent decision requests (the slot pool).
	MaxInflight int
	// Rate is the token-bucket refill in requests/second; 0 = unlimited.
	Rate float64
	// Burst is the bucket depth; 0 derives it from Rate.
	Burst int

	// DefaultDeadline applies when a request carries no X-Deadline-Ms;
	// MaxDeadline caps what the header may ask for.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxBatch bounds observations per request body.
	MaxBatch int

	// WedgeTimeout is how long an in-flight decision may run before the
	// watchdog declares the tenant wedged and recycles it. It also bounds
	// checkpoint resume during tenant (re)builds.
	WedgeTimeout time.Duration
	// WatchdogInterval is the sweep cadence.
	WatchdogInterval time.Duration

	// DrainWindow bounds Drain when the caller passes no explicit window.
	DrainWindow time.Duration

	// BreakerBackoff is the first quarantine duration after a tenant
	// panic; it doubles per re-trip up to BreakerBackoffMax.
	BreakerBackoff    time.Duration
	BreakerBackoffMax time.Duration
	// ProbationRequests is how many consecutively clean requests re-admit
	// a quarantined tenant to good standing.
	ProbationRequests int

	// MaxTenantSeries caps per-family tenant label sets in the registry
	// (tenant IDs are unbounded); overflow lands in
	// serve_labels_dropped_total.
	MaxTenantSeries int

	// ReplicateTo, when set, makes this server a replicating primary: every
	// committed checkpoint artifact is shipped per tenant to the standby at
	// this base URL (scheme + host), flushed as one group per batch before
	// the client is acked. See internal/replica.
	ReplicateTo string
	// ReplicaTerm is the fencing term stamped on shipped groups; 0 means 1.
	// A process promoted out of standby restarts with the promoted term.
	ReplicaTerm uint64
	// Standby makes this server a hot standby: it mounts the replication
	// endpoints, applies incoming lineages under CheckpointRoot (required),
	// and sheds decision traffic with 503 until promoted via /v1/promote.
	Standby bool

	// DedupWindow is how many idempotent request IDs (X-Request-Id /
	// request_id) each tenant remembers, journaled with the batches so the
	// window survives restart and failover. 0 selects DefDedupWindow;
	// negative disables deduplication.
	DedupWindow int

	// DisableStreamCoalesce turns off request coalescing on every
	// transport: the tenant's coalescer serves one member per group, so
	// concurrent requests for one tenant — frames, JSON bodies or lines —
	// run one DecideBatch each instead of merging under the tenant's
	// decision slot. Decisions are byte-identical either way (the PR 6
	// batch contract); this exists as the benchmark ablation arm.
	DisableStreamCoalesce bool

	// JitterSeed seeds the deterministic stream that spreads Retry-After
	// hints (each shed hint gets + U[0, hint/2)), so shed clients do not
	// retry in lockstep. 0 selects DefJitterSeed; tests pick fixed seeds
	// for reproducibility.
	JitterSeed uint64

	// JournalFault, when set, installs a per-tenant fault hook on every
	// tenant store's journal write path (disk-fault injection; tests only).
	JournalFault func(tenant string) atomicio.FaultFn

	// Registry receives the serve_* metric families; nil creates one.
	Registry *telemetry.Registry
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Defaults for zero Config fields.
const (
	DefMaxThreads        = 32
	DefCheckpointEvery   = 64
	DefMaxTenants        = 4096
	DefMaxInflight       = 64
	DefDefaultDeadline   = 2 * time.Second
	DefMaxDeadline       = 30 * time.Second
	DefMaxBatch          = 1024
	DefWedgeTimeout      = 5 * time.Second
	DefDrainWindow       = 10 * time.Second
	DefBreakerBackoff    = 500 * time.Millisecond
	DefBreakerBackoffMax = 30 * time.Second
	DefProbationRequests = 3
	DefMaxTenantSeries   = 512
	DefDedupWindow       = 128
	DefJitterSeed        = 1
)

// withDefaults fills zero fields; it does not mutate the caller's copy.
func (c Config) withDefaults() (Config, error) {
	if c.MaxThreads == 0 {
		c.MaxThreads = DefMaxThreads
	}
	if c.MaxThreads < 1 {
		return c, fmt.Errorf("serve: MaxThreads must be at least 1, got %d", c.MaxThreads)
	}
	if c.PolicyBuild == nil {
		c.PolicyBuild = DefaultPolicyBuild
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = DefCheckpointEvery
	}
	if c.CheckpointEvery < 0 {
		return c, fmt.Errorf("serve: negative CheckpointEvery %d", c.CheckpointEvery)
	}
	if c.MaxTenants == 0 {
		c.MaxTenants = DefMaxTenants
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = DefMaxInflight
	}
	if c.MaxInflight < 1 {
		return c, fmt.Errorf("serve: MaxInflight must be at least 1, got %d", c.MaxInflight)
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = DefDefaultDeadline
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = DefMaxDeadline
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = DefMaxBatch
	}
	if c.WedgeTimeout == 0 {
		c.WedgeTimeout = DefWedgeTimeout
	}
	if c.WatchdogInterval == 0 {
		c.WatchdogInterval = c.WedgeTimeout / 4
		if c.WatchdogInterval < time.Millisecond {
			c.WatchdogInterval = time.Millisecond
		}
	}
	if c.DrainWindow == 0 {
		c.DrainWindow = DefDrainWindow
	}
	if c.BreakerBackoff == 0 {
		c.BreakerBackoff = DefBreakerBackoff
	}
	if c.BreakerBackoffMax == 0 {
		c.BreakerBackoffMax = DefBreakerBackoffMax
	}
	if c.ProbationRequests == 0 {
		c.ProbationRequests = DefProbationRequests
	}
	if c.MaxTenantSeries == 0 {
		c.MaxTenantSeries = DefMaxTenantSeries
	}
	if c.Standby && c.CheckpointRoot == "" {
		return c, fmt.Errorf("serve: Standby requires CheckpointRoot (lineages must land on disk)")
	}
	if c.DedupWindow == 0 {
		c.DedupWindow = DefDedupWindow
	}
	if c.DedupWindow < 0 {
		c.DedupWindow = 0 // explicit opt-out
	}
	if c.GroupCommitWindow < 0 {
		c.GroupCommitWindow = 0
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = DefJitterSeed
	}
	if c.ReplicaTerm == 0 {
		c.ReplicaTerm = 1
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c, nil
}

// DefaultPolicyBuild gives every tenant a fresh mixture over the paper's
// canonical Table 1 experts — instant to construct (no training pass), and
// exactly what a solo Runtime in the golden tests wraps, which is what
// makes server-vs-solo byte-identity checks meaningful.
func DefaultPolicyBuild(string) (moe.Policy, error) {
	return moe.NewMixture(moe.CanonicalExperts())
}
