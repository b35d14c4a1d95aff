(** Combinational equivalence checking.

    The paper reduces sequential verification to combinational verification
    and hands the result to "an in-house tool similar to [10, 12]".  This is
    that tool: three engines over the {!Seqprob.t} problem IR — one shared
    structurally-hashed AIG holding both sides' output cones over a typed
    variable universe — optionally run in parallel over cone-clustered
    output partitions of the miter.

    {!check} is the one entry point; the unrollers ({!Cbf}, {!Edbf})
    build problems directly, and {!problem_of_circuits} wraps two
    combinational netlists into a problem (inputs matched {e by name} —
    each name becomes the variable [Seqprob.Var.time name 0], and the
    universe is the union of both input sets; outputs are matched by
    position). *)

type counterexample = (Seqprob.Var.t * bool) list
(** Assignment to (a subset of) the problem's variables; unlisted variables
    are [false]. *)

type verdict =
  | Equivalent
  | Inequivalent of counterexample
  | Undecided of string
      (** the check gave up within its resource {!limits}; the string is a
          human-readable reason ("SAT conflict budget", "BDD node ceiling",
          "partition deadline", "cancelled", prefixed by the partition) *)

type engine =
  | Bdd_engine  (** monolithic BDDs over the AIG, one variable per input *)
  | Sat_engine  (** one CNF miter, one SAT call *)
  | Sweep_engine
      (** fraig-style: random simulation classes + incremental SAT merging,
          then a miter check on the swept AIG *)

val engine_name : engine -> string
(** ["bdd"] / ["sat"] / ["sweep"] — the CLI/wire spelling. *)

type limits = {
  sat_conflicts : int option;
      (** base conflict budget per SAT call; the escalation ladder's SAT
          rung multiplies it *)
  bdd_nodes : int option;
      (** approximate live-node ceiling for the BDD engine *)
  seconds : float option;
      (** wall-clock deadline per partition, covering every escalation
          rung spent on it *)
  escalate : bool;
      (** when a budget blows, climb the engine ladder (bigger-budget SAT,
          then BDD) before answering [Undecided] *)
}
(** Resource limits for one check.  [None] caps are unlimited. *)

val no_limits : limits
(** No caps, escalation on — engines run to completion (the pre-budget
    behavior); only cross-partition cancellation can interrupt them. *)

val default_limits : limits
(** Generous defaults (50k conflicts per SAT call, 2M BDD nodes, no
    deadline, escalation on) that stop runaway solves without affecting
    easy problems. *)

type stats = {
  sat_calls : int;  (** SAT solver invocations *)
  sim_rounds : int;  (** 64-pattern random simulation rounds (sweep) *)
  partitions : int;
      (** output-cone clusters checked — the {!Layout}'s verdict units
          (1 = monolithic) *)
  cache_hits : int;
      (** partitions answered from the in-memory result cache *)
  store_hits : int;
      (** partitions answered from the persistent verdict store (disjoint
          from [cache_hits]: a verdict promoted into memory counts here
          once, then as a cache hit on repeats) *)
  store_writes : int;
      (** verdicts appended write-through to the persistent store *)
  cache_evictions : int;
      (** entries dropped from the in-memory cache by its capacity bound *)
  conflicts : int;  (** SAT conflicts spent, summed over all calls *)
  budget_hits : int;
      (** engine runs stopped by a blown conflict budget or node ceiling *)
  deadline_hits : int;
      (** engine runs stopped by a partition deadline or cancellation *)
  escalations : int;  (** ladder rungs climbed after a blown budget *)
  undecided : int;
      (** partitions left undecided (includes partitions abandoned because
          a sibling already found a counterexample) *)
  elapsed_seconds : float;
      (** true wall clock of the whole check (monotonic), including
          partitioning and cache probing *)
  partition_seconds : float;
      (** wall clock spent computing the partition layout (output
          clustering, cost estimation, bin packing and sub-AIG
          extraction); [0.] for an explicitly monolithic check *)
  bdd_seconds : float;
      (** CPU-seconds spent in each engine, summed across clusters.  The
          three buckets are {e disjoint}: time inside [Sat.solve] is
          always SAT time ([sat_seconds]), wherever the call came from —
          the sweep engine's merge queries included — and each engine's
          bucket gets the remainder of its runs' wall time.  In parallel
          mode clusters overlap in time, so the sums can legitimately
          {e exceed} [elapsed_seconds] — compare against
          [elapsed_seconds] for the wall-clock story *)
  sat_seconds : float;
  sweep_seconds : float;
}
(** Per-check statistics.  A [stats] value is owned by the caller of one
    check: concurrent checks (and the partitions within one check) never
    share mutable state.  All [*_seconds] fields are derived from the
    {!Obs} span instrumentation (monotonic clock) and are measured whether
    or not tracing is enabled; {!stats_pp} prints both the wall clock and
    the per-engine CPU-second sums. *)

val empty_stats : stats

val stats_pp : Format.formatter -> stats -> unit
(** One-line rendering printing {e every} field: counters, the elapsed
    wall clock (with the partitioning share) and the per-engine
    CPU-seconds (labelled as such, since they can exceed the wall clock
    in parallel runs). *)

(** Structural-hash result cache.  Keyed by the purely structural canonical
    AIG signature of an output-cone pair (see {!Aig.cone_signature});
    structurally identical cone pairs — common across the Table-1 variants
    of one circuit, across unrolling depths, and under renamed inputs —
    are proven once.  Counterexamples are stored over canonical input
    positions (first-visit DFS order) so a hit replays under the hitting
    problem's own typed variables.  Safe to share across domains and
    across checks.

    The in-memory index is {e bounded}: growing past [capacity] triggers a
    batch eviction of the least-recently-hit entries down to 3/4 of
    capacity (counted in {!type-stats}[.cache_evictions]), so arbitrarily
    long runs hold at most [capacity] verdicts in memory.  With a [store]
    backing, misses fall through to the persistent store (a disk hit is
    promoted back into memory) and new verdicts are written through —
    evicted entries are therefore recoverable, and verdicts survive the
    process.  [Undecided] answers are never cached or persisted. *)
module Cache : sig
  type t

  val default_capacity : int
  (** 65536 entries. *)

  val create : ?capacity:int -> ?store:Store.t -> unit -> t
  (** [create ()] is unbacked at the default capacity; [~store] makes the
      cache write-through to (and fall back on) a persistent store. *)

  val clear : t -> unit
  (** Drops the in-memory index only; a backing store is untouched. *)

  val size : t -> int

  val store : t -> Store.t option

  val observed_cost : t -> string -> float option
  (** Engine seconds observed when the cone pair with this signature was
      last checked (the maximum over observations), if any — the
      {!Layout}'s cost prior.  Observations are kept even for verdicts
      the cache cannot store ([Undecided]). *)
end

module Layout = Layout
(** Cost-model-driven partition layout: overlap clustering into
    verdict-unit {e clusters}, a [nodes × depth] cone cost estimate
    refinable by observed engine seconds, a monolithic fast path below a
    total-cost threshold, and cost-balanced packing of clusters into
    scheduling {e bins}.  See {!Layout.compute}. *)

type layout =
  | Adaptive
      (** the {!Layout} cost model decides — but only when the check runs
          on a pool with [Par.Pool.jobs > 1]; without one (or on a 1-job
          pool) the check is monolithic *)
  | Monolithic  (** one miter check, never partitioned *)
  | Partitioned
      (** always lay the miter out in clusters and check them one by one
          (in parallel on a pool with [jobs > 1]) *)

type config = { engine : engine; limits : limits; layout : layout }
(** The check's policy: which engine, under which budgets, in which
    layout.  Execution resources (a pool, a cache) are not policy and are
    passed to {!check} as handles. *)

val default_config : config
(** [Sweep_engine], {!no_limits}, [Adaptive]. *)

val check :
  ?config:config ->
  ?pool:Par.Pool.t ->
  ?cache:Cache.t ->
  Seqprob.t ->
  verdict * stats
(** Decides equivalence of the problem's two output-cone groups under
    [config] (default {!default_config}), returning the verdict and the
    per-check statistics.

    {b Layout.}  A partitioned check splits the miter into output-cone
    {e clusters} — each an independent check by soundness of output
    splitting.  Output pairs whose fanin cones (in the shared AIG)
    overlap by at least half of the smaller cone are clustered together
    (so shared logic is swept once); each cluster is checked — and cached
    — on its own, and clusters are packed by estimated cost (refined by
    observed engine seconds when the cache or store has seen a cluster's
    cone before) into cost-proportional scheduling {e bins}, the unit of
    pool work.  Cluster boundaries depend only on the problem — never on
    the pool, never on cache state — so verdicts and cache keys are
    identical at every parallelism level; bin shapes may vary with cost
    priors but never influence a verdict.  Clusters are carved out of the
    problem graph with {!Aig.extract} — no netlist round-trip.  Under
    [Adaptive] with a pool of [jobs > 1], a problem below the cost
    threshold is checked in one piece (no layout, no worker spin-up —
    parallelism costs nothing on small problems) and one above it is
    partitioned.

    {b Resources are borrowed.}  The caller owns [pool] and [cache]:
    neither is shut down nor cleared here.  Parallelism comes only from
    [pool]; without one, every cluster runs on the calling domain.  Because
    {!Par.Pool} is safe under concurrent submitters, many simultaneous
    checks (the verification server's concurrent requests) may share one
    pool, whose lazy demand-driven sizing never spawns more domains than
    outstanding bins warrant.  [cache] shares verdicts across checks; a
    persistent store reaches the check only as the backing of a cache
    ({!Cache.create} [~store]).  Without [cache], a partitioned check uses
    a fresh cache of its own and a monolithic check caches nothing.
    [Undecided] answers are never cached.

    {b Budgets.}  Each cluster checks under its own wall-clock deadline
    and each SAT call / BDD build under its resource cap
    ([config.limits]); a blown budget climbs the escalation ladder
    (requested engine at base budget → SAT at a larger conflict budget →
    BDD under the node ceiling) before giving up.  A partition that still
    cannot be decided makes the overall verdict [Undecided] — unless some
    other partition finds a counterexample, which always wins.  Budgets
    never flip a verdict: anything short of a full proof or a concrete
    counterexample is reported as [Undecided], never as [Equivalent].

    {b Cancellation.}  The moment any partition finds a counterexample a
    shared flag is set and every in-flight sibling solver stops mid-solve.
    The {e verdict} is still deterministic, but under parallel cancellation
    the reported counterexample may come from any failing partition
    (without a pool, or on a 1-job pool, partitions run in order, so it is
    the lowest-index one).

    @raise Invalid_argument if the two output groups differ in length
    (impossible for problems built by {!Seqprob.problem}). *)

val problem_of_circuits : Circuit.t -> Circuit.t -> Seqprob.t
(** Wraps two combinational netlists into a problem via
    {!Seqprob.of_circuits} (inputs united by name at time 0, outputs
    matched by position), for checking them with {!check}.
    @raise Invalid_argument if either circuit contains latches or the
    output counts differ. *)

val counterexample_is_valid :
  Circuit.t -> Circuit.t -> counterexample -> bool
(** Replays a counterexample on both circuits and confirms some output pair
    differs.  Signals are matched by full variable identity: a signal named
    ["x"] reads the value of variable [x@0], and a signal named ["x@1"] (an
    unrolled time frame) reads frame 1 of [x] — distinct frames of one
    input never collide.  For problem-level replay use
    {!Seqprob.cex_is_valid}. *)
