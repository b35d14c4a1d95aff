(* Workload [sec]: style-pair sequential equivalence checks through
   [Verify.check] with structural exposure and no store.

   The pairs straddle the Layout threshold: small and mid-size FIFOs and
   lane ALUs run monolithic (SAT dominates), alu6x8x4, alu8x8x4 and
   fifo64x16 partition (layout and the pool dominate), and three of the
   fourteen pairs are [~bug] mutants, two of them partitioned, whose
   first counterexample cancels sibling partitions.  This is the one
   workload at jobs 2: at jobs 1 every check is monolithic.
   Retiming, the store and the server are not touched. *)

open Harness

(* The layer values one [Verify.check] already reports. *)
let verify_layers (s : Verify.stats) =
  let c = s.Verify.cec in
  [
    ("cbf.unroll_s", s.Verify.unroll_seconds);
    ("cbf.aig_nodes", float_of_int s.Verify.unrolled_nodes);
    ("cec.check_wall_s", c.Cec.elapsed_seconds);
    ("cec.layout_s", c.Cec.partition_seconds);
    ("cec.sat_cpu_s", c.Cec.sat_seconds);
    ("cec.sweep_cpu_s", c.Cec.sweep_seconds);
    ("cec.bdd_cpu_s", c.Cec.bdd_seconds);
    ("cec.cpu_s", c.Cec.sat_seconds +. c.Cec.sweep_seconds +. c.Cec.bdd_seconds);
    ("cec.sat_calls", float_of_int c.Cec.sat_calls);
    ("cec.conflicts", float_of_int c.Cec.conflicts);
    ("cec.sim_rounds", float_of_int c.Cec.sim_rounds);
    ("cec.partitions", float_of_int c.Cec.partitions);
    ("cec.monolithic_share", if c.Cec.partitions <= 1 then 1. else 0.);
    ("cec.undecided_partitions", float_of_int c.Cec.undecided);
  ]

let cpu_over_wall ~mean =
  let w = mean "cec.check_wall_s" in
  [ ("cec.cpu_over_wall", if w > 0. then mean "cec.cpu_s" /. w else 0.) ]

(* The known answer of one check: [`Eq], or [`Neq] with a counterexample
   that must replay on the original circuits. *)
let judge ~expect ~exposed c1 c2 = function
  | Error d -> Failed ("error: " ^ Seqprob.diagnosis_to_string d)
  | Ok o -> (
      match (o.Verify.verdict, expect) with
      | Verify.Undecided why, _ -> Failed ("undecided: " ^ why)
      | Verify.Equivalent, `Eq -> Pass
      | Verify.Equivalent, `Neq -> Wrong "EQUIVALENT on a known mutant"
      | Verify.Inequivalent _, `Eq -> Wrong "INEQUIVALENT on an equivalent pair"
      | Verify.Inequivalent None, `Neq -> Wrong "mutant rejected without a cex"
      | Verify.Inequivalent (Some cex), `Neq ->
          if Verify.confirm_cex ~exposed c1 c2 cex then Pass
          else Wrong "counterexample does not replay")

type pair = {
  left : Circuit.t;
  right : Circuit.t;
  exposed : string list;
  expect : [ `Eq | `Neq ];
}

let exposure c =
  List.map (Circuit.signal_name c) (Feedback.plan_structural c).Feedback.exposed

let fifo ?bug entries width (sa, sb) =
  let left = Workloads.fifo ~entries ~width ~style:sa () in
  let right = Workloads.fifo ?bug ~entries ~width ~style:sb () in
  let expect = if bug = Some true then `Neq else `Eq in
  { left; right; exposed = exposure left; expect }

let alu ?bug ?(styles = (`Ripple, `Select)) lanes width stages =
  let sa, sb = styles in
  let left = Workloads.lane_alu ~lanes ~width ~stages ~style:sa () in
  let right = Workloads.lane_alu ?bug ~lanes ~width ~stages ~style:sb () in
  { left; right; exposed = []; expect = (if bug = Some true then `Neq else `Eq) }

(* One round of the stream: fourteen pairs, once each, roughly in order
   of their time on the machine the benchmark was tuned on, at jobs 2
   (from about 30 to 300 ms).  Partitioned: the alu8x8x4 mutant,
   alu6x8x4 and the fifo64x16 mutant (38 partitions, the first
   counterexample cancels the rest); the rest are monolithic.  The host
   switches between a fast and a slow state about 1.35 times apart, and
   the median of one pair's times jumps between the two states' values
   as the share of slow time changes, so the median (among the fifo16x8
   pairs and the alu8x4x2 to alu9x4x2 pairs) and the tail percentile
   (75, among alu10x4x2 to alu6x8x4) each fall among several pairs of
   nearby times, where they move smoothly with that share. *)
let menu () =
  [|
    fifo 16 4 (`Sop, `Mux);
    fifo ~bug:true 16 8 (`Sop, `Mux);
    fifo 16 8 (`Mux, `Sop);
    fifo 16 8 (`Sop, `Mux);
    alu 8 4 2;
    alu 8 6 2;
    alu ~bug:true 8 8 4;
    alu 9 4 2;
    alu 10 4 2;
    alu 3 8 3;
    alu 12 4 2;
    alu 2 8 4;
    alu 6 8 4;
    fifo ~bug:true 64 16 (`Sop, `Mux);
  |]

let check ~pool p = Verify.check ~pool ~exposed:p.exposed p.left p.right

let setup ~seed ~jobs ~tmp:_ =
  (* one pool for the whole stream, as a long-lived caller would keep:
     ops pay for partitioned checks, not for spawning domains *)
  let pool = Par.Pool.create ~jobs in
  let menu = menu () in
  let pick = round_robin ~seed (Array.length menu) in
  (* warm-up outside the timed stream: the smallest monolithic pair and
     a partitioned one, which spawns the pool's domains *)
  List.iter (fun k -> ignore (check ~pool menu.(k))) [ 0; 12 ];
  let prepare ~traced:_ i =
    let k = pick i in
    let p = menu.(k) in
    k, fun () ->
      let r = check ~pool p in
      {
        check = (fun () -> judge ~expect:p.expect ~exposed:p.exposed p.left p.right r);
        layers =
          (fun () ->
            match r with Ok o -> verify_layers o.Verify.stats | Error _ -> []);
      }
  in
  let teardown () = Par.Pool.shutdown pool in
  {
    busy_domains = jobs;
    prepare;
    finish = (fun () -> teardown (); []);
    teardown;
  }

(* peak RSS over the whole stream *)
let workload =
  {
    name = "sec";
    jobs = 2;
    rss_probe_ops = None;
    nominal_ops_per_s = 3.;
    wall_layers = [ "cbf.unroll_s"; "cec.check_wall_s" ];
    replayed = false;
    ratios = cpu_over_wall;
    setup;
  }
