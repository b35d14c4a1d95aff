(* Workload [flow]: the paper's experiment.  Each op is one [Flow.run]
   over a Table-1-shaped circuit (stages A->G and the H-vs-J verdict).
   Synthesis and retiming do most of each op, so a retiming change shows
   here and a CEC change should not: these checks are always monolithic.

   The flow runs sequentially, as in the paper.  With [~jobs:2] every op
   creates a pool and wakes a second domain for the retiming probes; on a
   2-CPU host whose second CPU is intermittently busy elsewhere, that made
   throughput vary three times as much between runs.

   The traced op replays the same pipeline through the public functions
   of each layer (feedback, synth, retiming, verify) so their times can
   be told apart; [Flow.run] itself reports only stage totals. *)

open Harness

(* The table-1-small circuits of Table 1 (fixed generator seeds), minus
   s3271 and minmax20/32: each takes 5-10 times the median op, so a run
   would see too few of them to be steady.  The host the benchmark was
   tuned on switches between a fast and a slow state, about 1.35 times
   apart, and every op's time follows; the median of ops of one size then
   jumps between the two states' values as the share of slow time
   changes.  Table 1 leaves a gap around the median, from about 50 ms
   (s400, s953, ...) over s444 (70 ms) to s1269 (150 ms), so seven more
   Table-1-shaped circuits at table-1-small sizes (latches, self-loop
   percentage, gates per latch, generator seed) fill it: the median
   falls among eight sizes spread over a factor of almost two, and
   moves with the slow share smoothly, as the mean does.  The tail
   percentile (90) falls among s3330, prolog and s4863, which take
   about the same time. *)
let fillers =
  [
    (21, 71, 6, 2); (21, 71, 6, 4); (25, 71, 6, 5); (21, 71, 6, 1);
    (25, 71, 6, 3); (25, 71, 6, 1); (29, 60, 7, 3);
  ]

let filler (latches, percent, scale, seed) =
  Workloads.fsm_datapath
    ~name:(Printf.sprintf "fsm%d_%d" latches seed)
    ~latches ~self_loops:(latches * percent / 100) ~gates:(scale * latches)
    ~width:(8 + (latches / 64)) ~seed

let circuits () =
  (Workloads.table1_suite_small ()
  |> List.filter (fun (n, _) -> not (List.mem n [ "s3271"; "minmax20"; "minmax32" ]))
  |> List.map snd)
  @ List.map filler fillers
  |> Array.of_list

let verdict_outcome = function
  | Error d -> Failed ("error: " ^ Seqprob.diagnosis_to_string d)
  | Ok Verify.Equivalent -> Pass
  | Ok (Verify.Undecided why) -> Failed ("undecided: " ^ why)
  | Ok (Verify.Inequivalent _) -> Wrong "INEQUIVALENT on a retimed circuit"

let untraced a =
  let r = Flow.run a in
  {
    check =
      (fun () -> verdict_outcome (Result.map (fun r -> r.Flow.verify_verdict) r));
    layers = (fun () -> []);
  }

(* [Flow.run]'s pipeline, one timed call per layer.  B exposes a minimum
   feedback vertex set; C/E synthesize B and retime it for minimum period
   and for minimum area under D's delay; F/G do the same from A; H-vs-J
   checks B against C. *)
let traced_run a =
  let ( let* ) = Result.bind in
  let layers = ref [] in
  let timed key f =
    let r, dt = time f in
    layers := (key, dt) :: !layers;
    r
  in
  let plan = timed "feedback.expose_s" (fun () -> Feedback.plan_structural a) in
  let exposed_names = List.map (Circuit.signal_name a) plan.Feedback.exposed in
  let b = Circuit.copy ~name:(Circuit.name a ^ "_B") a in
  List.iter
    (fun n ->
      match Circuit.find_signal b n with
      | Some s when not (Circuit.is_output b s) -> Circuit.mark_output b s
      | _ -> ())
    exposed_names;
  let d = timed "synth.script_s" (fun () -> Synth_script.delay_script a) in
  let period = Circuit.delay d in
  let retime src names =
    let sy = timed "synth.script_s" (fun () -> Synth_script.delay_script src) in
    let* exposed = Verify.exposed_pred sy names in
    let fast, _ =
      timed "retiming.min_period_s" (fun () -> Retime.min_period ~exposed sy)
    in
    timed "retiming.min_area_s" (fun () ->
        match Retime.constrained_min_area ~exposed ~period sy with
        | Ok _ -> ()
        | Error Retime.Infeasible_period ->
            ignore (Retime.min_period ~exposed sy));
    Ok fast
  in
  let r =
    let* c = retime b exposed_names in
    let* _ = retime (Circuit.copy ~name:(Circuit.name a ^ "_F") a) [] in
    Verify.check ~exposed:exposed_names b c
  in
  {
    check = (fun () -> verdict_outcome (Result.map (fun o -> o.Verify.verdict) r));
    layers =
      (fun () ->
        match r with
        | Ok o -> !layers @ Wl_sec.verify_layers o.Verify.stats
        | Error _ -> !layers);
  }

let setup ~seed ~jobs:_ ~tmp:_ =
  let menu = circuits () in
  let pick = round_robin ~seed (Array.length menu) in
  (* warm-up outside the timed stream: two small circuits *)
  Array.iter
    (fun c ->
      if List.mem (Circuit.name c) [ "s1196"; "s641" ] then
        ignore (Flow.run c))
    menu;
  let prepare ~traced i =
    let k = pick i in
    let a = menu.(k) in
    (k, if traced then fun () -> traced_run a else fun () -> untraced a)
  in
  { busy_domains = 1; prepare; finish = (fun () -> []); teardown = ignore }

(* peak RSS after one round of 22 ops.  The traced op is a replay, so its
   layers are reconciled with the wall time of the untraced [Flow.run]. *)
let workload =
  {
    name = "flow";
    jobs = 1;
    rss_probe_ops = Some 22;
    nominal_ops_per_s = 4.;
    wall_layers =
      [
        "feedback.expose_s";
        "synth.script_s";
        "retiming.min_period_s";
        "retiming.min_area_s";
        "cbf.unroll_s";
        "cec.check_wall_s";
      ];
    replayed = true;
    ratios = Wl_sec.cpu_over_wall;
    setup;
  }
