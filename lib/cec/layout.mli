(** Cost-model-driven partition layout for the partitioned CEC.

    Splits a {!Seqprob.t} into overlap-clustered output-cone {e clusters}
    (the verdict and cache-key units — a pure function of the problem,
    independent of [jobs] and of cache state) and packs the clusters by
    estimated cost into scheduling {e bins} (what the domain pool actually
    runs; also jobs-independent, but reshaped freely by cost priors since
    bins never influence a verdict or a cache key).  Below a total-cost
    threshold the layout collapses to a monolithic check so small problems
    never pay partitioning or pool overhead.  Re-exported as
    [Cec.Layout]. *)

type cluster = {
  members : int list;  (** output-pair indices, ascending *)
  nodes : int;  (** distinct AIG nodes in the pair's combined fanin cone *)
  depth : int;  (** 1 + deepest unroll frame among the cone's inputs *)
  cost : float;  (** estimated work in node-frames, [>= nodes] *)
}

type t = {
  monolithic : bool;
      (** total estimated cost under the threshold (or mean cluster cost
          under the floor): check the whole problem in one piece, spin up
          no pool *)
  total_cost : float;
      (** sum of cluster costs; for a quick-rejected monolithic layout, a
          cheap upper bound computed without clustering *)
  clusters : cluster list;
      (** empty for a quick-rejected monolithic layout (the problem was
          too small to even pay the clustering pass) *)
  bins : int list list;
      (** scheduling groups of indices into [clusters], heaviest first;
          [[]] when [monolithic] *)
  bin_costs : float array;
}

val default_threshold : float
(** 15k node-frames — above every table-1 circuit that partitioning slows
    down (milliseconds of engine work, where per-cluster setup is pure
    overhead), below every large-tier workload. *)

val min_mean_cluster_cost : float
(** Mean-cluster-cost floor (150 node-frames): a problem whose total
    clears the threshold but whose clusters are confetti — each paying
    fixed signature/solver/simulator setup for almost no work — still
    runs monolithically. *)

val bin_cost_target : float
(** Aimed-for work per scheduling bin (a quarter of the threshold), so
    bin count grows with problem cost up to {!max_bins}. *)

val max_bins : int

val estimate : nodes:int -> depth:int -> float
(** [nodes * max 1 depth] — monotone in both arguments. *)

val clusters : Seqprob.t -> cluster list
(** Greedy overlap clustering of the problem's output pairs, with each
    cluster's base cost estimate filled in.  Depends only on the
    problem. *)

val cluster_signature : Seqprob.t -> cluster -> string
(** The purely structural cone-pair signature of a cluster, computed on
    the shared graph; equal to the signature of the extracted
    sub-problem, so it indexes the same {!Cec.Cache} / {!Store} entries. *)

val compute :
  ?threshold:float ->
  ?forced:bool ->
  ?prior:(signature:string -> float option) ->
  Seqprob.t ->
  t
(** Full layout: cluster, estimate, threshold-check, pack.  The layout is
    monolithic when the total base estimate is under [threshold] {e or}
    the mean cluster cost is under {!min_mean_cluster_cost}.
    [~forced:true] disables the monolithic fast path (the
    [Partitioned] layout of {!Cec.config}).
    [prior] maps a cluster's signature to observed engine seconds from an
    earlier check (result cache / persistent store); a prior replaces that
    cluster's estimate for {e packing} purposes only — the monolithic
    decision uses the unrefined estimate so warm runs keep the partition
    boundaries (and so the cache keys) of their cold run. *)
