(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 8) on the synthetic benchmark suite, plus bechamel
   micro-benchmarks of the dominating kernels and the ablations listed in
   DESIGN.md.

   Usage:
     dune exec bench/main.exe                 # tables + figures + quick micro
     dune exec bench/main.exe -- --table1     # Table 1 only (small suite)
     dune exec bench/main.exe -- --table1 --full   # all 23 circuits
     dune exec bench/main.exe -- --table1 --smoke  # exit 1 unless all EQ
     dune exec bench/main.exe -- --table2     # Table 2 (exposure counts)
     dune exec bench/main.exe -- --suite retime [--smoke] [--jobs N]
                                              # retiming-core tier (deep datapaths)
     dune exec bench/main.exe -- --suite large [--smoke] [--jobs N|auto]
                                              # large tier (FIFOs, lane ALUs):
                                              # adaptive partitioning vs monolithic
     dune exec bench/main.exe -- --suite serve [--smoke] [--jobs N|auto]
                                              # warm concurrent server vs cold
                                              # one-shot runs (BENCH_serve.json)
     dune exec bench/main.exe -- --suite hier [--smoke] [--jobs N|auto]
                                              # compositional SEC vs flat, warm
                                              # verdict reuse (BENCH_hier.json)
   --jobs accepts an integer or "auto" (Domain.recommended_domain_count,
   further capped per check by the layout's bin count; default 1).
     dune exec bench/main.exe -- --figs       # figure reproductions
     dune exec bench/main.exe -- --ablation-cec | --ablation-rewrite
                                 | --ablation-dchoice
     dune exec bench/main.exe -- --micro      # bechamel micro-benchmarks *)

let pf = Format.printf

(* benchmark circuits are all well-formed, so a diagnosis here is a bug *)
let ok what = function
  | Ok r -> r
  | Error d ->
      failwith (Printf.sprintf "%s: %s" what (Seqprob.diagnosis_to_string d))

(* The bench owns each check's resources: a pool of [jobs] (none at 1, a
   monolithic check) and a fresh cache over [store], both per check. *)
let check_outcome ?config ?(jobs = 1) ?store ?rewrite_events ?guard_events
    ?exposed c1 c2 =
  let cache = Option.map (fun store -> Cec.Cache.create ~store ()) store in
  Par.Pool.with_jobs ~jobs (fun pool ->
      ok "verify"
        (Verify.check ?config ?pool ?cache ?rewrite_events ?guard_events
           ?exposed c1 c2))

let check_verdict ?rewrite_events ?guard_events ?exposed c1 c2 =
  (check_outcome ?rewrite_events ?guard_events ?exposed c1 c2).Verify.verdict

(* generous default limits: easy instances are unaffected, runaway solves
   surface as UNDEC instead of hanging the bench *)
let budgeted = { Cec.default_config with limits = Cec.default_limits }

let with_engine engine = { Cec.default_config with engine }

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

(* One measured circuit of the Table-1 run, for the text summary and the
   machine-readable BENCH_table1.json trajectory file. *)
type t1_record = {
  r_name : string;
  r_verdict : string;
  r_seconds : float;  (* verify wall-clock at the requested --jobs *)
  r_seq_seconds : float option;  (* same check, jobs=1 monolithic *)
  r_seq_verdict : string option;
  r_unrolled_nodes : int;  (* AND nodes of the shared unrolled AIG *)
  r_cec : Cec.stats;
  r_unroll_seconds : float;  (* Verify.stats.unroll_seconds *)
  r_retime_seconds : float;  (* Flow stages C+E+F+G (synthesis+retiming) *)
  r_retime_ref_seconds : float;  (* same stages, reference retiming pipeline *)
  (* same H-vs-J check re-run against the shared verdict store with a fresh
     in-memory cache (--cache-dir only): verdict, seconds, cec stats *)
  r_warm : (string * float * Cec.stats) option;
}

let verdict_str = function
  | Verify.Equivalent -> "EQ"
  | Verify.Inequivalent _ -> "NEQ"
  | Verify.Undecided _ -> "UNDEC"

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '"' | '\\' ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf ch
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_table1_json ~path ~suite_name ~jobs records =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  let total = List.fold_left (fun a r -> a +. r.r_seconds) 0. records in
  let seq_total =
    if List.for_all (fun r -> r.r_seq_seconds <> None) records && records <> [] then
      Some
        (List.fold_left
           (fun a r -> a +. Option.value ~default:0. r.r_seq_seconds)
           0. records)
    else None
  in
  p "{\n";
  p "  \"suite\": \"%s\",\n" (json_escape suite_name);
  p "  \"jobs\": %d,\n" jobs;
  p "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      p "    {\"circuit\": \"%s\", \"verdict\": \"%s\", \"verify_seconds\": %.6f, "
        (json_escape r.r_name) (json_escape r.r_verdict) r.r_seconds;
      (match (r.r_seq_seconds, r.r_seq_verdict) with
      | Some s, Some v ->
          p "\"verify_seconds_jobs1\": %.6f, \"verdict_jobs1\": \"%s\", " s (json_escape v)
      | _ -> ());
      p "\"unrolled_aig_nodes\": %d, " r.r_unrolled_nodes;
      p "\"sat_calls\": %d, \"sim_rounds\": %d, \"partitions\": %d, \"cache_hits\": %d, "
        r.r_cec.Cec.sat_calls r.r_cec.Cec.sim_rounds r.r_cec.Cec.partitions
        r.r_cec.Cec.cache_hits;
      p "\"store_hits\": %d, \"store_writes\": %d, \"cache_evictions\": %d, "
        r.r_cec.Cec.store_hits r.r_cec.Cec.store_writes
        r.r_cec.Cec.cache_evictions;
      p "\"conflicts\": %d, \"budget_hits\": %d, \"deadline_hits\": %d, \"escalations\": %d, \"undecided\": %d, "
        r.r_cec.Cec.conflicts r.r_cec.Cec.budget_hits r.r_cec.Cec.deadline_hits
        r.r_cec.Cec.escalations r.r_cec.Cec.undecided;
      (* per-phase seconds, derived from the Obs span instrumentation:
         engine phases are CPU-seconds (summed across partitions), the
         elapsed field is the CEC's true wall clock *)
      p "\"phase_unroll_seconds\": %.6f, \"phase_partition_seconds\": %.6f, "
        r.r_unroll_seconds r.r_cec.Cec.partition_seconds;
      p "\"phase_sweep_cpu_seconds\": %.6f, \"phase_sat_cpu_seconds\": %.6f, \"phase_bdd_cpu_seconds\": %.6f, "
        r.r_cec.Cec.sweep_seconds r.r_cec.Cec.sat_seconds
        r.r_cec.Cec.bdd_seconds;
      p
        "\"phase_retime_seconds\": %.6f, \"phase_retime_reference_seconds\": \
         %.6f, \"elapsed_seconds\": %.6f}%s\n"
        r.r_retime_seconds r.r_retime_ref_seconds r.r_cec.Cec.elapsed_seconds
        (if i = List.length records - 1 then "" else ","))
    records;
  p "  ],\n";
  (* paired before/after summary for the retiming stages: geometric mean of
     per-circuit reference/fast ratios *)
  (if records <> [] then
     let logsum =
       List.fold_left
         (fun acc r ->
           acc
           +. Float.log
                (r.r_retime_ref_seconds /. Float.max r.r_retime_seconds 1e-9))
         0. records
     in
     p "  \"retime_speedup\": %.3f,\n"
       (Float.exp (logsum /. float_of_int (List.length records))));
  (* warm rows live in their own section so the cold totals/speedup above
     keep their meaning *)
  if List.exists (fun r -> r.r_warm <> None) records then begin
    p "  \"rows_warm\": [\n";
    let warm = List.filter (fun r -> r.r_warm <> None) records in
    List.iteri
      (fun i r ->
        match r.r_warm with
        | None -> ()
        | Some (v, secs, cec) ->
            p
              "    {\"circuit\": \"%s\", \"verdict\": \"%s\", \
               \"verify_seconds\": %.6f, \"partitions\": %d, \
               \"cache_hits\": %d, \"store_hits\": %d, \"store_writes\": \
               %d, \"sat_calls\": %d}%s\n"
              (json_escape r.r_name) (json_escape v) secs cec.Cec.partitions
              cec.Cec.cache_hits cec.Cec.store_hits cec.Cec.store_writes
              cec.Cec.sat_calls
              (if i = List.length warm - 1 then "" else ","))
      warm;
    p "  ],\n";
    p "  \"total_verify_seconds_warm\": %.6f,\n"
      (List.fold_left
         (fun a r ->
           match r.r_warm with Some (_, s, _) -> a +. s | None -> a)
         0. records)
  end;
  p "  \"total_verify_seconds\": %.6f" total;
  (match seq_total with
  | Some s ->
      p ",\n  \"total_verify_seconds_jobs1\": %.6f" s;
      p ",\n  \"speedup\": %.3f" (if total > 0. then s /. total else 1.)
  | None -> ());
  (* per-suite parallel speedup: geomean over rows of jobs1/jobsN (1.0 at
     jobs=1 by construction; with the adaptive layout small circuits take
     the monolithic fast path at every jobs value, so this sits at ~1) *)
  (let pairs =
     List.filter_map
       (fun r -> Option.map (fun s1 -> s1 /. Float.max r.r_seconds 1e-9) r.r_seq_seconds)
       records
   in
   if pairs <> [] then
     p ",\n  \"parallel_speedup\": %.3f"
       (Float.exp
          (List.fold_left (fun a x -> a +. Float.log x) 0. pairs
          /. float_of_int (List.length pairs))));
  p "\n}\n";
  close_out oc

(* Smoke-mode budget demo: a real B-vs-C miter under a 1-conflict SAT budget
   must come back Undecided (not a hang, not a wrong Equivalent), and the
   escalation ladder must then prove the very same problem, spending nonzero
   budget/escalation counters. *)
let budget_smoke () =
  let c = Workloads.by_name "s953" in
  let b, copt = ok "flow" (Flow.circuits c) in
  let plan = Feedback.plan_structural c in
  let names = List.map (Circuit.signal_name c) plan.Feedback.exposed in
  let ex cc s = List.mem (Circuit.signal_name cc s) names in
  let bld = Seqprob.builder () in
  let o1, _ = ok "unroll" (Cbf.unroll ~exposed:(ex b) bld b) in
  let o2, _ = ok "unroll" (Cbf.unroll ~exposed:(ex copt) bld copt) in
  let p = ok "problem" (Seqprob.problem bld ~outs1:o1 ~outs2:o2) in
  let tiny = { Cec.no_limits with Cec.sat_conflicts = Some 1; escalate = false } in
  let v1, s1 =
    Cec.check
      ~config:{ Cec.default_config with engine = Cec.Sat_engine; limits = tiny }
      p
  in
  let ladder = { Cec.default_limits with Cec.sat_conflicts = Some 1 } in
  let v2, s2 =
    Cec.check ~config:{ Cec.default_config with limits = ladder } p
  in
  let show = function
    | Cec.Equivalent -> "EQ"
    | Cec.Inequivalent _ -> "NEQ"
    | Cec.Undecided r -> Printf.sprintf "UNDEC(%s)" r
  in
  pf
    "budget smoke: 1-conflict SAT budget -> %s (%d budget hits); escalation ladder -> %s (%d escalations, %d budget hits, %d conflicts)@."
    (show v1) s1.Cec.budget_hits (show v2) s2.Cec.escalations
    s2.Cec.budget_hits s2.Cec.conflicts;
  match (v1, v2) with
  | Cec.Undecided _, Cec.Equivalent
    when s1.Cec.budget_hits > 0 && s2.Cec.escalations > 0 ->
      ()
  | _ ->
      pf "SMOKE FAILURE: budget/escalation semantics@.";
      exit 1

let table1 ~full ~jobs ~smoke ~cache_dir () =
  pf "@.== Table 1: optimization and verification results ==@.";
  pf "(A = original; C = expose+synth+min-period retime; D = synth only;@.";
  pf " E = expose+synth+min-area retime at D's period; F/G = like C/E without@.";
  pf " exposure.  Areas normalized to D, as in the paper.  S = unit-delay period.)@.";
  if jobs > 1 then
    pf "(HvJ checked with --jobs %d: output-partitioned, %d domains; the jobs=1@.\
       \ column re-times the same check monolithically for the speedup.)@." jobs jobs;
  pf "@.";
  pf "%-9s| %5s | %4s %5s %3s | %3s | %4s %5s %3s | %3s | %4s | %4s %5s | %4s | %8s@."
    "circuit" "A#L" "F#L" "Farea" "FS" "%" "C#L" "Carea" "CS" "DS" "G#L" "E#L"
    "Earea" "ok" "HvJ";
  pf "%s@." (String.make 100 '-');
  let store = Option.map (fun d -> Store.open_ d) cache_dir in
  (match (store, cache_dir) with
  | Some st, Some d ->
      let i = Store.info st in
      pf "(verdict store %s: %d entries%s)@." d i.Store.entries
        (match i.Store.quarantined_to with
        | Some q -> Printf.sprintf ", corrupt log quarantined to %s" q
        | None -> "")
  | _ -> ());
  let suite = if full then Workloads.table1_suite () else Workloads.table1_suite_small () in
  let records =
    List.map
      (fun (name, c) ->
        let row = ok "flow" (Flow.run ~config:budgeted ~jobs ?store c) in
        let darea = float_of_int (max 1 row.Flow.d.Flow.area) in
        let rel a = float_of_int a /. darea in
        pf
          "%-9s| %5d | %4d %5.2f %3d | %3.0f | %4d %5.2f %3d | %3d | %4d | %4d %5.2f | %4s | %7.2fs@."
          name row.Flow.a.Flow.latches row.Flow.f.Flow.latches (rel row.Flow.f.Flow.area)
          row.Flow.f.Flow.delay row.Flow.exposed_percent row.Flow.c.Flow.latches
          (rel row.Flow.c.Flow.area) row.Flow.c.Flow.delay row.Flow.d.Flow.delay
          row.Flow.g.Flow.latches row.Flow.e.Flow.latches (rel row.Flow.e.Flow.area)
          (match row.Flow.verify_verdict with
          | Verify.Equivalent -> "EQ"
          | Verify.Inequivalent _ -> "NEQ!"
          | Verify.Undecided _ -> "UNDEC?")
          row.Flow.verify_seconds;
        let seq =
          if jobs <= 1 then None
          else begin
            (* re-time the H-vs-J check at both job counts.  [Flow.run]
               above already executed it once at [jobs], so both
               measurements here run warm under the same allocator/GC
               state — pairing the cold first execution with a warm
               jobs=1 re-run systematically understates the jobs=N side
               on millisecond-scale rows *)
            let plan = Feedback.plan_structural c in
            let exposed = List.map (Circuit.signal_name c) plan.Feedback.exposed in
            let b, copt = ok "flow" (Flow.circuits c) in
            let on = check_outcome ~config:budgeted ~jobs ~exposed b copt in
            let o1 = check_outcome ~config:budgeted ~exposed b copt in
            Some
              ( on.Verify.stats.Verify.seconds,
                (o1.Verify.stats.Verify.seconds, verdict_str o1.Verify.verdict)
              )
          end
        in
        let warm =
          match store with
          | None -> None
          | Some st ->
              (* the same H-vs-J check again, fresh in-memory cache backed
                 by the now-populated store: every partition the cold run
                 proved should come back without engine work *)
              let plan = Feedback.plan_structural c in
              let exposed =
                List.map (Circuit.signal_name c) plan.Feedback.exposed
              in
              let b, copt = ok "flow" (Flow.circuits c) in
              let o =
                check_outcome ~config:budgeted ~jobs ~store:st ~exposed b copt
              in
              let cec = o.Verify.stats.Verify.cec in
              pf
                "          warm re-check: %s %.3fs, %d/%d partitions from \
                 store (+%d cached)@."
                (verdict_str o.Verify.verdict) o.Verify.stats.Verify.seconds
                cec.Cec.store_hits cec.Cec.partitions cec.Cec.cache_hits;
              Some
                ( verdict_str o.Verify.verdict,
                  o.Verify.stats.Verify.seconds,
                  cec )
        in
        let retime_ref =
          match Flow.reference_retime_seconds c with
          | Ok s -> s
          | Error d -> failwith (Seqprob.diagnosis_to_string d)
        in
        {
          r_name = name;
          r_verdict = verdict_str row.Flow.verify_verdict;
          r_seconds =
            (* warm jobs=N re-timing when paired with a jobs=1 number *)
            (match seq with
            | Some (wn, _) -> wn
            | None -> row.Flow.verify_seconds);
          r_seq_seconds = Option.map (fun (_, (s, _)) -> s) seq;
          r_seq_verdict = Option.map (fun (_, (_, v)) -> v) seq;
          r_warm = warm;
          r_unrolled_nodes = row.Flow.verify_stats.Verify.unrolled_nodes;
          r_cec = row.Flow.verify_stats.Verify.cec;
          r_unroll_seconds = row.Flow.verify_stats.Verify.unroll_seconds;
          r_retime_seconds =
            List.fold_left
              (fun a (st, dt) ->
                if List.mem st [ "C"; "E"; "F"; "G" ] then a +. dt else a)
              0. row.Flow.stage_seconds;
          r_retime_ref_seconds = retime_ref;
        })
      suite
  in
  let total = List.fold_left (fun a r -> a +. r.r_seconds) 0. records in
  pf "%s@." (String.make 100 '-');
  if jobs > 1 then begin
    let seq_total =
      List.fold_left (fun a r -> a +. Option.value ~default:0. r.r_seq_seconds) 0. records
    in
    let agree =
      List.for_all (fun r -> r.r_seq_verdict = Some r.r_verdict) records
    in
    pf "verify wall-clock: jobs=%d %.2fs vs jobs=1 %.2fs  (speedup %.2fx, verdicts %s)@."
      jobs total seq_total
      (if total > 0. then seq_total /. total else 1.)
      (if agree then "agree" else "DISAGREE!")
  end
  else pf "verify wall-clock: jobs=1 %.2fs@." total;
  (if records <> [] then
     let fast = List.fold_left (fun a r -> a +. r.r_retime_seconds) 0. records in
     let refr =
       List.fold_left (fun a r -> a +. r.r_retime_ref_seconds) 0. records
     in
     let logsum =
       List.fold_left
         (fun acc r ->
           acc
           +. Float.log
                (r.r_retime_ref_seconds /. Float.max r.r_retime_seconds 1e-9))
         0. records
     in
     pf
       "retime stages (C+E+F+G): fast %.2fs vs reference %.2fs (geomean \
        speedup %.2fx)@."
       fast refr
       (Float.exp (logsum /. float_of_int (List.length records))));
  (match store with
  | Some st ->
      let warm_total =
        List.fold_left
          (fun a r -> match r.r_warm with Some (_, s, _) -> a +. s | None -> a)
          0. records
      in
      pf "verify wall-clock warm (store-backed re-check): %.2fs@." warm_total;
      pf "verdict store after run: %a@." Store.pp_info (Store.info st);
      Store.close st
  | None -> ());
  let suite_name = if full then "full" else "small" in
  write_table1_json ~path:"BENCH_table1.json" ~suite_name ~jobs records;
  pf "wrote BENCH_table1.json@.";
  if smoke then begin
    let bad =
      List.filter
        (fun r ->
          r.r_verdict <> "EQ"
          || (match r.r_seq_verdict with Some v -> v <> "EQ" | None -> false)
          || match r.r_warm with Some (v, _, _) -> v <> "EQ" | None -> false)
        records
    in
    if bad <> [] then begin
      List.iter
        (fun r -> pf "SMOKE FAILURE: %s verdict %s@." r.r_name r.r_verdict)
        bad;
      exit 1
    end;
    pf "smoke: all %d verdicts Equivalent@." (List.length records);
    (* with a verdict store, the warm re-check must answer at least half
       of all partitions without engine work — store hits plus memory hits
       on verdicts the store promoted — and hit the store at all *)
    (match store with
    | Some _ ->
        let parts, served, st_hits =
          List.fold_left
            (fun (p, s, h) r ->
              match r.r_warm with
              | Some (_, _, cec) ->
                  ( p + cec.Cec.partitions,
                    s + cec.Cec.store_hits + cec.Cec.cache_hits,
                    h + cec.Cec.store_hits )
              | None -> (p, s, h))
            (0, 0, 0) records
        in
        if st_hits = 0 || 2 * served < parts then begin
          pf
            "SMOKE FAILURE: warm re-check served %d of %d partitions (%d \
             from store)@."
            served parts st_hits;
          exit 1
        end;
        pf "smoke: warm re-check served %d/%d partitions (%d store hits)@."
          served parts st_hits
    | None -> ());
    budget_smoke ()
  end

(* ------------------------------------------------------------------ *)
(* Retime suite                                                        *)
(* ------------------------------------------------------------------ *)

(* Retiming-core tier on the deep-datapath workloads: times min-period
   search plus min-area retiming on the raw retiming graph (no synthesis,
   no verification — this tier isolates the retiming engines).  Small
   instances are checked differentially against the reference pipeline; in
   [--smoke] mode any disagreement (or an illegal/over-period labeling)
   exits nonzero, and the largest instances are skipped to keep CI fast. *)
let suite_retime ~jobs ~smoke () =
  pf "@.== Retime suite: deep pipelined datapaths ==@.";
  pf "(fast = incremental FEAS + warm-started search + scaling flow;@.";
  pf " ref = naive FEAS bisection + unpruned constraints + old flow core.)@.@.";
  pf "%-12s %6s %6s | %4s %6s | %9s %9s %8s | %s@." "circuit" "n" "L_in"
    "P" "L_out" "fast" "ref" "speedup" "check";
  pf "%s@." (String.make 84 '-');
  let pool = if jobs > 1 then Some (Par.Pool.create ~jobs) else None in
  Fun.protect ~finally:(fun () ->
      match pool with Some p -> Par.Pool.shutdown p | None -> ())
  @@ fun () ->
  let failures = ref 0 in
  let suite =
    List.filter
      (fun (_, c) -> (not smoke) || Circuit.latch_count c <= 800)
      (Workloads.retime_suite ())
  in
  List.iter
    (fun (name, c) ->
      let g = Rgraph.build c in
      let n = Rgraph.vertex_count g in
      let fast () =
        let period, _ = Feas.min_period ?pool g in
        match Minarea.solve ~period ?pool g with
        | Some r -> (period, r)
        | None -> failwith "retime suite: min period infeasible?"
      in
      let (period, r), t_fast = Obs.timed_span ~name:"bench.retime_fast" fast in
      let latches_after = Rgraph.total_latches_after g ~r in
      let legal = Rgraph.is_legal g ~r && Feas.period_of g ~r <= period in
      let check, t_ref =
        if n > 1000 then ((if legal then "legal" else "ILLEGAL!"), None)
        else begin
          let reference () =
            let p, _ = Feas.Naive.min_period g in
            match Minarea.solve ~period:p ~reference:true g with
            | Some rr -> (p, rr)
            | None -> failwith "retime suite: reference infeasible?"
          in
          let (p_ref, r_ref), t_ref =
            Obs.timed_span ~name:"bench.retime_reference" reference
          in
          let agree =
            legal && p_ref = period
            && Rgraph.total_latches_after g ~r:r_ref = latches_after
          in
          ((if agree then "agree" else "DISAGREE!"), Some t_ref)
        end
      in
      if check = "DISAGREE!" || check = "ILLEGAL!" then incr failures;
      pf "%-12s %6d %6d | %4d %6d | %8.3fs %9s %8s | %s@." name n
        (Circuit.latch_count c) period latches_after t_fast
        (match t_ref with Some t -> Printf.sprintf "%8.3fs" t | None -> "-")
        (match t_ref with
        | Some t -> Printf.sprintf "%.1fx" (t /. Float.max t_fast 1e-9)
        | None -> "-")
        check)
    suite;
  pf "%s@." (String.make 84 '-');
  if smoke then
    if !failures > 0 then begin
      pf "SMOKE FAILURE: %d retime-suite disagreement(s)@." !failures;
      exit 1
    end
    else pf "smoke: fast retiming agrees with reference on all instances@."

(* ------------------------------------------------------------------ *)
(* Large suite                                                         *)
(* ------------------------------------------------------------------ *)

(* Large tier: equivalent style pairs of FIFOs and lane-ALU pipelines,
   sized past the adaptive layout's monolithic threshold.  Every row is
   checked at the requested --jobs (cost-packed cluster bins) and again at
   jobs=1 (monolithic fast path); the per-suite [parallel_speedup] is the
   geomean of the per-row jobs1/jobsN ratios.  On these workloads the
   partitioned path wins even on one core: the sweep engine's per-merge
   SAT queries run over per-cluster sub-AIGs instead of the whole graph,
   and a counterexample in any cluster cancels the siblings. *)
type lg_record = {
  g_name : string;
  g_verdict : string;
  g_seconds : float;
  g_seq_verdict : string;
  g_seq_seconds : float;
  g_cec : Cec.stats;
  g_nodes : int;
}

let geomean = function
  | [] -> 1.
  | xs ->
      Float.exp
        (List.fold_left (fun a x -> a +. Float.log (Float.max x 1e-9)) 0. xs
        /. float_of_int (List.length xs))

let write_large_json ~path ~jobs records speedup =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"suite\": \"large\",\n";
  p "  \"jobs\": %d,\n" jobs;
  p "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      p "    {\"circuit\": \"%s\", \"verdict\": \"%s\", \"verify_seconds\": %.6f, "
        (json_escape r.g_name) (json_escape r.g_verdict) r.g_seconds;
      p "\"verdict_jobs1\": \"%s\", \"verify_seconds_jobs1\": %.6f, "
        (json_escape r.g_seq_verdict) r.g_seq_seconds;
      p "\"unrolled_aig_nodes\": %d, \"partitions\": %d, \"sat_calls\": %d, \"cache_hits\": %d, "
        r.g_nodes r.g_cec.Cec.partitions r.g_cec.Cec.sat_calls
        r.g_cec.Cec.cache_hits;
      p "\"phase_partition_seconds\": %.6f, \"phase_sweep_cpu_seconds\": %.6f, "
        r.g_cec.Cec.partition_seconds r.g_cec.Cec.sweep_seconds;
      p "\"phase_sat_cpu_seconds\": %.6f, \"phase_bdd_cpu_seconds\": %.6f, "
        r.g_cec.Cec.sat_seconds r.g_cec.Cec.bdd_seconds;
      p "\"elapsed_seconds\": %.6f, \"parallel_speedup\": %.3f}%s\n"
        r.g_cec.Cec.elapsed_seconds
        (r.g_seq_seconds /. Float.max r.g_seconds 1e-9)
        (if i = List.length records - 1 then "" else ","))
    records;
  p "  ],\n";
  p "  \"total_verify_seconds\": %.6f,\n"
    (List.fold_left (fun a r -> a +. r.g_seconds) 0. records);
  p "  \"total_verify_seconds_jobs1\": %.6f,\n"
    (List.fold_left (fun a r -> a +. r.g_seq_seconds) 0. records);
  p "  \"parallel_speedup\": %.3f\n" speedup;
  p "}\n";
  close_out oc

let suite_large ~jobs ~smoke () =
  pf "@.== Large suite: FIFOs and lane-ALU pipelines (adaptive layout) ==@.";
  pf "(each pair: two gate-level styles of the same design; jobs=1 is the@.";
  pf " monolithic fast path, jobs>=2 packs cost-balanced cluster bins.)@.@.";
  pf "%-14s %8s | %-6s %9s | %-6s %9s | %8s | %6s %5s@." "pair" "nodes"
    "jobsN" "secs" "jobs1" "secs" "speedup" "parts" "sat";
  pf "%s@." (String.make 84 '-');
  let exposed_of c =
    List.map (Circuit.signal_name c) (Feedback.plan_structural c).Feedback.exposed
  in
  let check_pair ~jobs c1 c2 =
    check_outcome ~config:budgeted ~jobs ~exposed:(exposed_of c1) c1 c2
  in
  let row (name, c1, c2) =
    let o = check_pair ~jobs c1 c2 in
    let o1 = if jobs = 1 then o else check_pair ~jobs:1 c1 c2 in
    let cec = o.Verify.stats.Verify.cec in
    let r =
      {
        g_name = name;
        g_verdict = verdict_str o.Verify.verdict;
        g_seconds = o.Verify.stats.Verify.seconds;
        g_seq_verdict = verdict_str o1.Verify.verdict;
        g_seq_seconds = o1.Verify.stats.Verify.seconds;
        g_cec = cec;
        g_nodes = o.Verify.stats.Verify.unrolled_nodes;
      }
    in
    pf "%-14s %8d | %-6s %8.3fs | %-6s %8.3fs | %7.2fx | %6d %5d@." name
      r.g_nodes r.g_verdict r.g_seconds r.g_seq_verdict r.g_seq_seconds
      (r.g_seq_seconds /. Float.max r.g_seconds 1e-9)
      cec.Cec.partitions cec.Cec.sat_calls;
    r
  in
  let records = List.map row (Workloads.large_suite ~smoke ()) in
  (* the intentionally-inequivalent mutant exercises first-counterexample
     cancellation; it reports alongside but stays out of the speedup *)
  let mutant = row (let n, a, b = Workloads.large_mutant () in (n, a, b)) in
  pf "%s@." (String.make 84 '-');
  let speedup =
    geomean
      (List.map (fun r -> r.g_seq_seconds /. Float.max r.g_seconds 1e-9) records)
  in
  pf "parallel_speedup (geomean jobs1/jobs%d over %d equivalent pairs): %.2fx@."
    jobs (List.length records) speedup;
  write_large_json ~path:"BENCH_large.json" ~jobs records speedup;
  pf "wrote BENCH_large.json@.";
  if smoke then begin
    let fails = ref [] in
    List.iter
      (fun r ->
        if r.g_verdict <> "EQ" || r.g_seq_verdict <> "EQ" then
          fails := Printf.sprintf "%s: verdict %s/%s" r.g_name r.g_verdict r.g_seq_verdict :: !fails;
        if r.g_cec.Cec.sat_calls > 0 && r.g_cec.Cec.sat_seconds <= 0. then
          fails := Printf.sprintf "%s: %d sat calls but zero sat seconds" r.g_name r.g_cec.Cec.sat_calls :: !fails)
      records;
    if mutant.g_verdict <> "NEQ" || mutant.g_seq_verdict <> "NEQ" then
      fails := Printf.sprintf "%s: mutant verdict %s/%s (want NEQ)" mutant.g_name mutant.g_verdict mutant.g_seq_verdict :: !fails;
    if jobs > 1 && speedup <= 1. then
      fails := Printf.sprintf "parallel_speedup %.2f <= 1" speedup :: !fails;
    (match !fails with
    | [] ->
        pf "smoke: all pairs EQ at jobs=1 and jobs=%d, mutant NEQ, speedup %.2fx@."
          jobs speedup
    | fs ->
        List.iter (fun f -> pf "SMOKE FAILURE: %s@." f) fs;
        exit 1)
  end

(* ------------------------------------------------------------------ *)
(* Serve suite                                                         *)
(* ------------------------------------------------------------------ *)

(* [--suite serve]: the long-lived server against cold one-shot runs.
   An in-process server (real Unix socket, real wire protocol) is loaded
   by [clients] concurrent connections replaying a mixed request stream
   [rounds] times; every verdict must agree with a cold jobs=1 one-shot
   run of the same pair.  The server's edge is the shared warm state: from
   round two on, every request is answered from the shared cache/store
   instead of re-running the engines.  A final burst against a
   max_pending=0 server demonstrates deterministic load shedding.
   Writes BENCH_serve.json. *)

(* Nearest-rank (rank = ceil (q*n)) over a sorted sample.  The previous
   truncation index [int_of_float (n *. q)] overshot every exact-boundary
   quantile by one rank (p50 of [|1.; 2.|] came out 2.); nearest-rank is
   also the rank convention [Obs.Histogram.quantile] uses, so the exact
   and histogram percentiles below are comparable rank-for-rank. *)
let percentile sorted q = Obs.Histogram.nearest_rank sorted q

let serve_pairs () =
  let fifo ?bug ~entries style = Workloads.fifo ?bug ~entries ~width:8 ~style () in
  [
    ("fifo8x8", fifo ~entries:8 `Sop, fifo ~entries:8 `Mux);
    ("fifo16x8", fifo ~entries:16 `Sop, fifo ~entries:16 `Mux);
    ("minmax8", Workloads.minmax ~width:8, Workloads.minmax ~width:8);
    ("fifo8x8_bug", fifo ~entries:8 `Sop, fifo ~bug:true ~entries:8 `Mux);
  ]

let write_serve_json ~path ~pool_jobs ~executors ~clients ~rounds ~rows
    ~requests ~wall ~rps ~cold_rps ~p50 ~p95 ~p99 ~hp50 ~hp95 ~hp99
    ~completed ~shed ~metrics_count ~shed_requests ~shed_busy =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"suite\": \"serve\",\n";
  p "  \"pool_jobs\": %d,\n" pool_jobs;
  p "  \"executors\": %d,\n" executors;
  p "  \"clients\": %d,\n" clients;
  p "  \"rounds\": %d,\n" rounds;
  p "  \"rows\": [\n";
  List.iteri
    (fun i (name, sv, cv, cold_s) ->
      p
        "    {\"pair\": \"%s\", \"verdict\": \"%s\", \"verdict_jobs1\": \
         \"%s\", \"cold_oneshot_seconds\": %.6f}%s\n"
        (json_escape name) (json_escape sv) (json_escape cv) cold_s
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ],\n";
  p "  \"requests\": %d,\n" requests;
  p "  \"warm_wall_seconds\": %.6f,\n" wall;
  p "  \"warm_throughput_rps\": %.3f,\n" rps;
  p "  \"cold_oneshot_rps\": %.3f,\n" cold_rps;
  p "  \"warm_over_cold\": %.3f,\n" (rps /. Float.max cold_rps 1e-9);
  p "  \"latency_p50_ms\": %.3f,\n" p50;
  p "  \"latency_p95_ms\": %.3f,\n" p95;
  p "  \"latency_p99_ms\": %.3f,\n" p99;
  p "  \"latency_hist_p50_ms\": %.3f,\n" hp50;
  p "  \"latency_hist_p95_ms\": %.3f,\n" hp95;
  p "  \"latency_hist_p99_ms\": %.3f,\n" hp99;
  p "  \"server_completed\": %d,\n" completed;
  p "  \"server_shed\": %d,\n" shed;
  p "  \"metrics_request_seconds_count\": %d,\n" metrics_count;
  p "  \"shed\": {\"requests\": %d, \"busy\": %d}\n" shed_requests shed_busy;
  p "}\n";
  close_out oc

let suite_serve ~jobs ~smoke () =
  pf "@.== Serve suite: warm shared-state server vs cold one-shot runs ==@.";
  let clients = 8 in
  let rounds = if smoke then 3 else 10 in
  let executors = 2 in
  let pairs = serve_pairs () in
  let exposed_of c =
    List.map (Circuit.signal_name c) (Feedback.plan_structural c).Feedback.exposed
  in
  (* cold baseline: every pair verified one-shot at jobs=1, fresh state *)
  pf "@.cold one-shot baseline (jobs=1, fresh caches):@.";
  let rows_cold =
    List.map
      (fun (name, c1, c2) ->
        let t0 = Unix.gettimeofday () in
        let o = check_outcome ~exposed:(exposed_of c1) c1 c2 in
        let dt = Unix.gettimeofday () -. t0 in
        pf "  %-12s %-5s %8.3fs@." name (verdict_str o.Verify.verdict) dt;
        (name, verdict_str o.Verify.verdict, dt))
      pairs
  in
  (* the server under load: [clients] connections replay the stream *)
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "seqver_bench_%d.sock" (Unix.getpid ()))
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "seqver_bench_store_%d" (Unix.getpid ()))
  in
  let cfg =
    {
      (Server.default_config ~socket_path:sock) with
      Server.executors;
      pool_jobs = jobs;
      cache_dir = Some dir;
    }
  in
  let t = Server.start cfg in
  let texts =
    List.map (fun (n, c1, c2) -> (n, Netlist_io.to_string c1, Netlist_io.to_string c2)) pairs
  in
  let sstr j k = Option.bind (Sjson.member k j) Sjson.get_string in
  let latencies = Array.make clients [] in
  let verdicts : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let vm = Mutex.create () in
  let wall0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun ci ->
        Thread.create
          (fun () ->
            let c = Server.Client.connect ~retries:50 sock in
            for _ = 1 to rounds do
              List.iter
                (fun (name, l, r) ->
                  let req =
                    Sjson.Obj
                      [
                        ("id", Sjson.Int ci);
                        ("op", Sjson.String "check");
                        ("left", Sjson.String l);
                        ("right", Sjson.String r);
                      ]
                  in
                  let t0 = Unix.gettimeofday () in
                  let resp = Server.Client.request c req in
                  let dt = Unix.gettimeofday () -. t0 in
                  latencies.(ci) <- dt :: latencies.(ci);
                  (* same samples into the live histogram, so the exact
                     and histogram percentiles below see one population
                     (server startup enabled Obs counters) *)
                  Obs.observe "bench.client_seconds" dt;
                  match sstr resp "verdict" with
                  | Some v ->
                      Mutex.lock vm;
                      Hashtbl.replace verdicts name v;
                      Mutex.unlock vm
                  | None -> ())
                texts
            done;
            Server.Client.close c)
          ())
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. wall0 in
  (* scrape the live telemetry before the server goes down: stats + the
     Prometheus exposition, to reconcile against the client-side tally *)
  let sint j k = Option.bind (Sjson.member k j) Sjson.get_int in
  let scrape = Server.Client.connect sock in
  let stats =
    Server.Client.request scrape
      (Sjson.Obj [ ("id", Sjson.Int 0); ("op", Sjson.String "stats") ])
  in
  let mresp =
    Server.Client.request scrape
      (Sjson.Obj [ ("id", Sjson.Int 0); ("op", Sjson.String "metrics") ])
  in
  Server.Client.close scrape;
  Server.stop t;
  let sobj = Option.value ~default:Sjson.Null (Sjson.member "server" stats) in
  let completed = Option.value ~default:(-1) (sint sobj "completed") in
  let shed = Option.value ~default:(-1) (sint sobj "shed") in
  let submitted = Option.value ~default:(-1) (sint sobj "checks") in
  let metric_value name =
    Option.value ~default:"" (sstr mresp "metrics")
    |> String.split_on_char '\n'
    |> List.find_map (fun line ->
           match String.index_opt line ' ' with
           | Some i when String.sub line 0 i = name ->
               float_of_string_opt
                 (String.sub line (i + 1) (String.length line - i - 1))
           | _ -> None)
  in
  let metrics_count =
    match metric_value "seqver_server_request_seconds_count" with
    | Some v -> int_of_float v
    | None -> -1
  in
  let hist = Obs.Histogram.find "bench.client_seconds" in
  let all = Array.of_list (List.concat (Array.to_list latencies)) in
  Array.sort compare all;
  let requests = Array.length all in
  let rps = float_of_int requests /. Float.max wall 1e-9 in
  (* the same stream served cold: every request pays its one-shot price *)
  let cold_stream =
    float_of_int (clients * rounds)
    *. List.fold_left (fun a (_, _, dt) -> a +. dt) 0. rows_cold
  in
  let cold_rps = float_of_int requests /. Float.max cold_stream 1e-9 in
  let ms q = 1000. *. percentile all q in
  let p50 = ms 0.50 and p95 = ms 0.95 and p99 = ms 0.99 in
  let hms q =
    match hist with
    | Some s -> 1000. *. Obs.Histogram.quantile s q
    | None -> 0.
  in
  let hp50 = hms 0.50 and hp95 = hms 0.95 and hp99 = hms 0.99 in
  pf "@.warm server (%d clients x %d rounds x %d pairs on %d executors, pool jobs=%d):@."
    clients rounds (List.length pairs) executors jobs;
  pf "  %d requests in %.3fs: %.1f req/s (cold one-shot equivalent: %.1f req/s, %.1fx)@."
    requests wall rps cold_rps (rps /. Float.max cold_rps 1e-9);
  pf "  latency (exact)     p50 %.1fms  p95 %.1fms  p99 %.1fms@." p50 p95 p99;
  pf "  latency (histogram) p50 %.1fms  p95 %.1fms  p99 %.1fms (bucket upper bounds)@."
    hp50 hp95 hp99;
  pf "  server accounting: %d submitted = %d completed + %d shed; \
      exposition _count %d@."
    submitted completed shed metrics_count;
  (* verdict agreement, server vs cold jobs=1 *)
  let short = function
    | "equivalent" -> "EQ"
    | "inequivalent" -> "NEQ"
    | _ -> "UNDEC"
  in
  let rows =
    List.map
      (fun (name, cv, dt) ->
        let sv =
          match Hashtbl.find_opt verdicts name with Some v -> short v | None -> "?"
        in
        (name, sv, cv, dt))
      rows_cold
  in
  List.iter
    (fun (name, sv, cv, _) -> pf "  %-12s server=%-5s jobs1=%-5s@." name sv cv)
    rows;
  (* deterministic shedding: a zero-capacity server sheds every check *)
  let sock2 = sock ^ ".shed" in
  let cfg2 =
    {
      (Server.default_config ~socket_path:sock2) with
      Server.executors = 1;
      pool_jobs = 1;
      max_pending = 0;
    }
  in
  let t2 = Server.start cfg2 in
  let c2 = Server.Client.connect ~retries:50 sock2 in
  let shed_requests = List.length texts in
  let shed_busy = ref 0 in
  List.iter
    (fun (_, l, r) ->
      let resp =
        Server.Client.request c2
          (Sjson.Obj
             [
               ("id", Sjson.Int 0);
               ("op", Sjson.String "check");
               ("left", Sjson.String l);
               ("right", Sjson.String r);
             ])
      in
      if sstr resp "reason" = Some "busy" then incr shed_busy)
    texts;
  Server.Client.close c2;
  Server.stop t2;
  pf "  shed burst: %d/%d checks shed busy at max_pending=0@." !shed_busy
    shed_requests;
  write_serve_json ~path:"BENCH_serve.json" ~pool_jobs:jobs ~executors ~clients
    ~rounds ~rows ~requests ~wall ~rps ~cold_rps ~p50 ~p95 ~p99 ~hp50 ~hp95
    ~hp99 ~completed ~shed ~metrics_count ~shed_requests ~shed_busy:!shed_busy;
  pf "wrote BENCH_serve.json@.";
  if smoke then begin
    let fails = ref [] in
    List.iter
      (fun (name, sv, cv, _) ->
        if sv <> cv then
          fails :=
            Printf.sprintf "%s: server verdict %s, jobs=1 one-shot %s" name sv
              cv
            :: !fails)
      rows;
    if requests <> clients * rounds * List.length pairs then
      fails :=
        Printf.sprintf "dropped responses: %d of %d" requests
          (clients * rounds * List.length pairs)
        :: !fails;
    (* the histogram view must agree with the exact sorted sample: same
       count, and each quantile within one bucket of the exact value
       (Obs.Histogram.quantile answers the upper bound of the bucket
       holding the rank-th sample) *)
    (match hist with
    | None -> fails := "no bench.client_seconds histogram" :: !fails
    | Some s ->
        if s.Obs.Histogram.count <> requests then
          fails :=
            Printf.sprintf "histogram count %d <> %d requests"
              s.Obs.Histogram.count requests
            :: !fails);
    List.iter
      (fun (label, exact_ms, hist_ms) ->
        let v = exact_ms /. 1000. in
        let _, hi = Obs.Histogram.bucket_bounds_of_value v in
        let h = hist_ms /. 1000. in
        if not (h >= v -. 1e-12 && h <= hi +. 1e-12) then
          fails :=
            Printf.sprintf
              "%s: histogram %.4fms not within one bucket of exact %.4fms \
               (bucket top %.4fms)"
              label hist_ms exact_ms (hi *. 1000.)
            :: !fails)
      [ ("p50", p50, hp50); ("p95", p95, hp95); ("p99", p99, hp99) ];
    (* server-side accounting must reconcile with the client-side tally
       and with the Prometheus exposition *)
    if completed + shed <> submitted then
      fails :=
        Printf.sprintf "accounting: completed %d + shed %d <> submitted %d"
          completed shed submitted
        :: !fails;
    if completed <> requests then
      fails :=
        Printf.sprintf "accounting: server completed %d <> %d client requests"
          completed requests
        :: !fails;
    if metrics_count <> completed then
      fails :=
        Printf.sprintf
          "metrics: seqver_server_request_seconds_count %d <> completed %d"
          metrics_count completed
        :: !fails;
    if !shed_busy <> shed_requests then
      fails :=
        Printf.sprintf "shed burst: %d/%d busy" !shed_busy shed_requests
        :: !fails;
    if rps < 2. *. cold_rps then
      fails :=
        Printf.sprintf "warm throughput %.1f req/s < 2x cold %.1f req/s" rps
          cold_rps
        :: !fails;
    match !fails with
    | [] ->
        pf "smoke: verdicts agree, %d/%d responses, warm %.1fx cold, shedding deterministic@."
          requests (clients * rounds * List.length pairs)
          (rps /. Float.max cold_rps 1e-9)
    | fs ->
        List.iter (fun f -> pf "SMOKE FAILURE: %s@." f) fs;
        exit 1
  end

(* ------------------------------------------------------------------ *)
(* Hier suite                                                          *)
(* ------------------------------------------------------------------ *)

(* [--suite hier]: compositional SEC on the hierarchical tier against the
   flat monolithic reference.  Every pair runs three ways: flat (flatten
   both designs, one Verify.check), cold compositional (fresh verdict
   store, every module pair checked leaf-first) and warm compositional
   (store reopened, every module pair answered from the log — zero engine
   runs).  Equivalent pairs additionally get a mutate-one-leaf warm
   rerun: one leaf of the right design is resynthesized (equivalence
   preserved, netlist signature changed), and the planner must re-check
   exactly that leaf's ancestor chain — the Obs counters pin the
   untouched modules to store hits.  Writes BENCH_hier.json. *)
type hr_record = {
  h_name : string;
  h_modules : int;  (* modules reachable from the top *)
  h_expected : string;
  h_expected_module : string;  (* offending module of `Neq rows, else "" *)
  h_flat_verdict : string;
  h_flat_seconds : float;
  h_cold : Hier.report;
  h_warm : Hier.report;
  h_warm_seconds : float;  (* best of two warm passes (noise floor) *)
  h_offending : string;  (* compositional attribution, "" when EQ *)
  (* mutate-one-leaf rerun, `Eq rows only:
     (leaf, chain = |invalidation set|, checked, store hits, verdict) *)
  h_mut : (string * int * int * int * string) option;
}

let hier_verdict_str = function
  | Hier.Equivalent -> "EQ"
  | Hier.Inequivalent _ -> "NEQ"
  | Hier.Undecided _ -> "UNDEC"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let write_hier_json ~path ~jobs rows speedup detection =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"suite\": \"hier\",\n";
  p "  \"jobs\": %d,\n" jobs;
  p "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      p "    {\"pair\": \"%s\", \"modules\": %d, \"expected\": \"%s\", "
        (json_escape r.h_name) r.h_modules (json_escape r.h_expected);
      p "\"expected_module\": \"%s\", " (json_escape r.h_expected_module);
      p "\"flat_verdict\": \"%s\", \"flat_seconds\": %.6f, "
        (json_escape r.h_flat_verdict) r.h_flat_seconds;
      p "\"cold_verdict\": \"%s\", \"cold_seconds\": %.6f, "
        (json_escape (hier_verdict_str r.h_cold.Hier.verdict))
        r.h_cold.Hier.seconds;
      p "\"cold_checked\": %d, \"cold_store_hits\": %d, \"cold_flat_fallbacks\": %d, "
        r.h_cold.Hier.checked r.h_cold.Hier.store_hits
        r.h_cold.Hier.flat_fallbacks;
      p "\"warm_seconds\": %.6f, \"warm_store_hits\": %d, \"warm_checked\": %d, "
        r.h_warm_seconds r.h_warm.Hier.store_hits r.h_warm.Hier.checked;
      p "\"warm_reuse_speedup\": %.3f, \"offending\": \"%s\""
        (r.h_cold.Hier.seconds /. Float.max r.h_warm_seconds 1e-9)
        (json_escape r.h_offending);
      (match r.h_mut with
      | Some (leaf, chain, checked, hits, v) ->
          p
            ", \"mutated_module\": \"%s\", \"mutated_chain\": %d, \
             \"mutated_checked\": %d, \"mutated_store_hits\": %d, \
             \"mutated_verdict\": \"%s\""
            (json_escape leaf) chain checked hits (json_escape v)
      | None -> ());
      p "}%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ],\n";
  p "  \"warm_reuse_speedup\": %.3f,\n" speedup;
  p "  \"mutant_detection_rate\": %.3f\n" detection;
  p "}\n";
  close_out oc

let suite_hier ~jobs ~smoke () =
  pf "@.== Hier suite: compositional SEC vs flat monolithic ==@.";
  pf "(flat: flatten + one check; cold: per-module leaf-first, fresh store;@.";
  pf " warm: store reopened, all hits; mut: one leaf resynthesized, only@.";
  pf " its ancestor chain re-checked.)@.@.";
  pf "%-10s %4s | %-5s %8s | %-5s %8s | %8s %7s | %s@." "pair" "mods" "flat"
    "secs" "cold" "secs" "warm(s)" "speedup" "mut chain";
  pf "%s@." (String.make 86 '-');
  Obs.enable_counters ();
  let counter name snap = Option.value ~default:0 (List.assoc_opt name snap) in
  let delta name before after = counter name after - counter name before in
  let exposed_of c =
    List.map (Circuit.signal_name c) (Feedback.plan_structural c).Feedback.exposed
  in
  let store_root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "seqver-bench-hier-%d" (Unix.getpid ()))
  in
  let row (name, dl, dr, expected) =
    let dir = Filename.concat store_root name in
    let c1 = Hier.flatten dl and c2 = Hier.flatten dr in
    let flat =
      check_outcome ~config:budgeted ~jobs ~exposed:(exposed_of c1) c1 c2
    in
    let st = Store.open_ dir in
    let cold = Hier.check ~jobs ~store:st dl dr in
    Store.close st;
    (* a fresh handle on the same log: hits come from disk, not the run's
       in-memory table *)
    let st = Store.open_ dir in
    let warm = Hier.check ~jobs ~store:st dl dr in
    let warm2 = Hier.check ~jobs ~store:st dl dr in
    let warm_seconds = Float.min warm.Hier.seconds warm2.Hier.seconds in
    let mut =
      match expected with
      | `Neq _ -> None
      | `Eq ->
          (* resynthesize the leaf with the shortest ancestor chain, so the
             rerun leaves the most modules untouched *)
          let leaf, chain =
            List.fold_left
              (fun best (m : Hier.module_def) ->
                if m.Hier.instances <> [] then best
                else
                  let n =
                    List.length (Hier.invalidation_set dr m.Hier.mod_name)
                  in
                  match best with
                  | Some (_, bn) when bn <= n -> best
                  | _ -> Some (m.Hier.mod_name, n))
              None dr.Hier.modules
            |> Option.get
          in
          let dm = Hier.map_module dr ~name:leaf ~f:(Hier.resynthesize ~seed:23) in
          let before = Obs.Counters.snapshot () in
          let r = Hier.check ~jobs ~store:st dl dm in
          let after = Obs.Counters.snapshot () in
          let checked = delta "hier.module_checked" before after in
          let hits = delta "hier.module_store_hits" before after in
          Some (leaf, chain, checked, hits, hier_verdict_str r.Hier.verdict)
    in
    Store.close st;
    rm_rf dir;
    let expected_str, expected_module =
      match expected with `Eq -> ("EQ", "") | `Neq m -> ("NEQ", m)
    in
    let offending =
      match cold.Hier.verdict with
      | Hier.Inequivalent { offending; _ } -> offending
      | _ -> ""
    in
    let r =
      {
        h_name = name;
        h_modules = List.length (Hier.module_order dl);
        h_expected = expected_str;
        h_expected_module = expected_module;
        h_flat_verdict = verdict_str flat.Verify.verdict;
        h_flat_seconds = flat.Verify.stats.Verify.seconds;
        h_cold = cold;
        h_warm = warm;
        h_warm_seconds = warm_seconds;
        h_offending = offending;
        h_mut = mut;
      }
    in
    pf "%-10s %4d | %-5s %7.3fs | %-5s %7.3fs | %7.4fs %6.2fx | %s@." name
      r.h_modules r.h_flat_verdict r.h_flat_seconds
      (hier_verdict_str cold.Hier.verdict)
      cold.Hier.seconds warm_seconds
      (cold.Hier.seconds /. Float.max warm_seconds 1e-9)
      (match mut with
      | Some (leaf, chain, checked, hits, v) ->
          Printf.sprintf "%s: %d re-checked, %d hits, %s" leaf chain hits v
          |> fun s -> if checked = chain then s else s ^ " (!)"
      | None -> Printf.sprintf "NEQ at %s" offending);
    r
  in
  let rows = List.map row (Workloads.hier_suite ()) in
  pf "%s@." (String.make 86 '-');
  let speedup =
    geomean
      (List.map
         (fun r -> r.h_cold.Hier.seconds /. Float.max r.h_warm_seconds 1e-9)
         rows)
  in
  let neq_rows = List.filter (fun r -> r.h_expected = "NEQ") rows in
  let detection =
    match neq_rows with
    | [] -> 1.
    | _ ->
        float_of_int
          (List.length
             (List.filter (fun r -> r.h_offending = r.h_expected_module) neq_rows))
        /. float_of_int (List.length neq_rows)
  in
  pf "warm_reuse_speedup (geomean cold/warm over %d pairs): %.2fx@."
    (List.length rows) speedup;
  pf "mutant_detection_rate: %.0f%% (%d/%d attributed to the right module)@."
    (100. *. detection)
    (List.length (List.filter (fun r -> r.h_offending = r.h_expected_module) neq_rows))
    (List.length neq_rows);
  write_hier_json ~path:"BENCH_hier.json" ~jobs rows speedup detection;
  pf "wrote BENCH_hier.json@.";
  if smoke then begin
    let fails = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
    List.iter
      (fun r ->
        if r.h_flat_verdict <> r.h_expected then
          fail "%s: flat verdict %s (want %s)" r.h_name r.h_flat_verdict
            r.h_expected;
        if hier_verdict_str r.h_cold.Hier.verdict <> r.h_flat_verdict then
          fail "%s: compositional %s disagrees with flat %s" r.h_name
            (hier_verdict_str r.h_cold.Hier.verdict)
            r.h_flat_verdict;
        if r.h_cold.Hier.flat_fallbacks <> 0 then
          fail "%s: %d flat fallbacks on a designed-compositional pair"
            r.h_name r.h_cold.Hier.flat_fallbacks;
        if r.h_expected = "NEQ" && r.h_offending <> r.h_expected_module then
          fail "%s: counterexample attributed to %S (want %S)" r.h_name
            r.h_offending r.h_expected_module;
        if hier_verdict_str r.h_warm.Hier.verdict
           <> hier_verdict_str r.h_cold.Hier.verdict
        then
          fail "%s: warm verdict %s <> cold %s" r.h_name
            (hier_verdict_str r.h_warm.Hier.verdict)
            (hier_verdict_str r.h_cold.Hier.verdict);
        if r.h_warm.Hier.checked <> 0 then
          fail "%s: warm rerun re-checked %d module pairs (want 0)" r.h_name
            r.h_warm.Hier.checked;
        if r.h_warm.Hier.store_hits <> List.length r.h_warm.Hier.modules then
          fail "%s: warm rerun %d/%d store hits" r.h_name
            r.h_warm.Hier.store_hits
            (List.length r.h_warm.Hier.modules);
        match r.h_mut with
        | None -> ()
        | Some (leaf, chain, checked, hits, v) ->
            if v <> "EQ" then
              fail "%s: resynthesized %s rerun verdict %s (want EQ)" r.h_name
                leaf v;
            if checked <> chain then
              fail
                "%s: mutated-%s rerun checked %d module pairs (want the \
                 %d-module ancestor chain)"
                r.h_name leaf checked chain;
            if hits <> r.h_modules - chain then
              fail
                "%s: mutated-%s rerun %d store hits (want the %d untouched \
                 modules)"
                r.h_name leaf hits (r.h_modules - chain))
      rows;
    if speedup <= 1. then fail "warm_reuse_speedup %.2f <= 1" speedup;
    if detection < 1. then fail "mutant_detection_rate %.2f < 1" detection;
    match !fails with
    | [] ->
        pf
          "smoke: compositional agrees with flat on %d pairs, warm reruns all \
           store hits (%.2fx), mutants attributed correctly@."
          (List.length rows) speedup
    | fs ->
        List.iter (fun f -> pf "SMOKE FAILURE: %s@." f) fs;
        exit 1
  end

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let table2 () =
  pf "@.== Table 2: latches exposed for the industrial-style circuits ==@.";
  pf "(structural = the paper's experiment; functional = the unateness-aware@.";
  pf " analysis the paper predicts 'would lead to reduced numbers'.)@.@.";
  pf "%-8s %9s %12s %12s %11s@." "example" "# latches" "# structural" "# functional"
    "# converted";
  pf "%s@." (String.make 56 '-');
  List.iter
    (fun (name, c) ->
      let total = Circuit.latch_count c in
      let s = List.length (Feedback.plan_structural c).Feedback.exposed in
      let fplan = Feedback.plan_functional c in
      pf "%-8s %9d %12d %12d %11d@." name total s
        (List.length fplan.Feedback.exposed)
        (List.length fplan.Feedback.converted))
    (Workloads.table2_suite ())

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  let a = Circuit.create "fig1a" in
  let d = Circuit.add_input a "d" in
  let q = Circuit.add_latch a ~data:d () in
  Circuit.mark_output a (Circuit.add_gate a Xor [ q; q ]);
  Circuit.check a;
  let b = Circuit.create "fig1b" in
  ignore (Circuit.add_input b "d");
  Circuit.mark_output b (Circuit.const_false b);
  Circuit.check b;
  let t3 = Sim.run_3v a ~inputs:[ [| true |] ] in
  let naive_differs = not (Sim.tv_equal (List.hd t3).(0) Sim.F) in
  let exact_equal = check_verdict a b = Verify.Equivalent in
  pf "Fig. 1:  naive 3-valued sim differs: %b; exact/CBF equivalent: %b  %s@."
    naive_differs exact_equal
    (if naive_differs && exact_equal then "[reproduced]" else "[MISMATCH]")

let fig10_pair collapse name =
  let c = Circuit.create name in
  let x = Circuit.add_input c "x" in
  let a = Circuit.add_input c "a" in
  let b = Circuit.add_input c "b" in
  let ab = Circuit.add_gate c And [ a; b ] in
  if collapse then Circuit.mark_output c (Circuit.add_latch c ~enable:ab ~data:x ())
  else begin
    let l1 = Circuit.add_latch c ~enable:a ~data:x () in
    Circuit.mark_output c (Circuit.add_latch c ~enable:ab ~data:l1 ())
  end;
  Circuit.check c;
  c

let fig10 () =
  let fneg =
    check_verdict ~rewrite_events:false (fig10_pair false "a") (fig10_pair true "b")
    <> Verify.Equivalent
  in
  let fixed =
    check_verdict (fig10_pair false "a2") (fig10_pair true "b2") = Verify.Equivalent
  in
  pf "Fig. 10: false negative without rule (5): %b; fixed with it: %b  %s@." fneg fixed
    (if fneg && fixed then "[reproduced]" else "[MISMATCH]")

let fig11 () =
  let mk data_kind =
    let c = Circuit.create ("f11" ^ data_kind) in
    let a = Circuit.add_input c "a" in
    let b = Circuit.add_input c "b" in
    let ab = Circuit.add_gate c Or [ a; b ] in
    let data = if data_kind = "b" then b else ab in
    Circuit.mark_output c (Circuit.add_latch c ~enable:ab ~data ());
    Circuit.check c;
    c
  in
  let conservative =
    match check_verdict (mk "b") (mk "ab") with
    | Verify.Inequivalent None -> true
    | _ -> false
  in
  pf "Fig. 11: event/data interaction stays a conservative rejection: %b  %s@."
    conservative
    (if conservative then "[reproduced]" else "[MISMATCH]")

let fig6 () =
  pf "Fig. 6:  pipeline retiming gains (min-period vs synth-only):@.";
  List.iter
    (fun imbalance ->
      let c =
        Workloads.pipeline
          ~name:(Printf.sprintf "p_i%d" imbalance)
          ~width:8 ~stages:6 ~imbalance ~seed:42
      in
      let d = Synth_script.delay_script c in
      let _, rep = Retime.min_period d in
      pf "         imbalance %d: D period %2d -> C period %2d (%.0f%% faster)@." imbalance
        rep.Retime.period_before rep.Retime.period_after
        (100.
        *. float_of_int (rep.Retime.period_before - rep.Retime.period_after)
        /. float_of_int (max 1 rep.Retime.period_before)))
    [ 1; 2; 4; 8 ]

let fig18 () =
  pf "Fig. 18: CBF unrolled-circuit sizes (cone replication):@.";
  List.iter
    (fun name ->
      let c = Workloads.by_name name in
      let plan = Feedback.plan_structural c in
      let names = List.map (Circuit.signal_name c) plan.Feedback.exposed in
      let exposed s = List.mem (Circuit.signal_name c s) names in
      let u, info = Cbf.unroll_netlist ~exposed c in
      (* and the shared-AIG size the engines actually see *)
      let b = Seqprob.builder () in
      let aig_nodes =
        match Cbf.unroll ~exposed b c with
        | Ok _ -> Aig.and_count (Seqprob.graph b)
        | Error _ -> -1
      in
      pf "         %-9s gates %5d -> unrolled %6d netlist / %6d AIG nodes (depth %d, %d variables)@."
        name (Circuit.area c) (Circuit.area u) aig_nodes info.Cbf.depth
        info.Cbf.variables)
    [ "s953"; "s1269"; "s3384"; "minmax10"; "minmax32" ]

let fig16 () =
  (* enabled-latch forward move across a gate (class-preserving) *)
  let c = Circuit.create "fig16" in
  let d1 = Circuit.add_input c "d1" in
  let d2 = Circuit.add_input c "d2" in
  let e = Circuit.add_input c "e" in
  let q1 = Circuit.add_latch c ~enable:e ~data:d1 () in
  let q2 = Circuit.add_latch c ~enable:e ~data:d2 () in
  let g = Circuit.add_gate c And [ q1; q2 ] in
  Circuit.mark_output c g;
  Circuit.check c;
  let legal = Classes.can_forward_move c ~gate:g in
  let moved = Classes.forward_move c ~gate:g in
  let still_ok = check_verdict c (Synth_script.quick_cleanup moved) in
  pf "Fig. 16: same-class forward move legal: %b; EDBF-verified after move: %b@." legal
    (still_ok = Verify.Equivalent)

let figs () =
  pf "@.== Figure reproductions ==@.";
  fig1 ();
  fig10 ();
  fig11 ();
  fig16 ();
  fig6 ();
  fig18 ()

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let ablation_cec () =
  pf "@.== Ablation: CEC engine on the unrolled miters ==@.";
  pf "%-10s %10s %10s %10s@." "circuit" "bdd" "sat" "sweep";
  List.iter
    (fun name ->
      let c = Workloads.by_name name in
      let b, copt = ok "flow" (Flow.circuits c) in
      let plan = Feedback.plan_structural c in
      let names = List.map (Circuit.signal_name c) plan.Feedback.exposed in
      let ex cc s = List.mem (Circuit.signal_name cc s) names in
      let bld = Seqprob.builder () in
      let o1, _ = ok "unroll" (Cbf.unroll ~exposed:(ex b) bld b) in
      let o2, _ = ok "unroll" (Cbf.unroll ~exposed:(ex copt) bld copt) in
      let p = ok "problem" (Seqprob.problem bld ~outs1:o1 ~outs2:o2) in
      let run engine =
        let (v, _), t = time (fun () -> Cec.check ~config:(with_engine engine) p) in
        (match v with
        | Cec.Equivalent -> ()
        | Cec.Inequivalent _ -> pf "NEQ?!"
        | Cec.Undecided _ -> pf "UNDEC?!");
        t
      in
      let tb = run Cec.Bdd_engine in
      let ts = run Cec.Sat_engine in
      let tw = run Cec.Sweep_engine in
      pf "%-10s %9.3fs %9.3fs %9.3fs@." name tb ts tw)
    [ "s400"; "s953"; "s1269"; "minmax10"; "minmax12" ]

let ablation_rewrite () =
  pf "@.== Ablation: rule-(5) event rewrite (Fig. 10 class) ==@.";
  let fneg = ref 0 and fixed = ref 0 in
  let n = 10 in
  for i = 1 to n do
    let a = fig10_pair false (Printf.sprintf "ra%d" i) in
    let b = fig10_pair true (Printf.sprintf "rb%d" i) in
    if check_verdict ~rewrite_events:false a b <> Verify.Equivalent then incr fneg;
    if check_verdict a b = Verify.Equivalent then incr fixed
  done;
  pf "without rule (5): %d/%d false negatives@." !fneg n;
  pf "with rule (5):    %d/%d proven equivalent@." !fixed n

let ablation_synth_rewrite () =
  pf "@.== Ablation: cut-based AIG rewriting in the synthesis script ==@.";
  pf "%-10s %14s %14s %10s@." "circuit" "area(balance)" "area(+rewrite)" "saving";
  List.iter
    (fun name ->
      let c = Workloads.by_name name in
      let base = Synth_script.delay_script c in
      let opts = { Synth_script.default_options with rewrite = true } in
      let rw = Synth_script.delay_script ~options:opts c in
      (* sanity: still equivalent *)
      (match
         fst
           (Cec.check
              (Cec.problem_of_circuits (Comb_view.of_sequential base)
                 (Comb_view.of_sequential rw)))
       with
      | Cec.Equivalent -> ()
      | Cec.Inequivalent _ | Cec.Undecided _ -> pf "REWRITE BUG on %s!@." name);
      let a0 = Circuit.area base and a1 = Circuit.area rw in
      pf "%-10s %14d %14d %9.1f%%@." name a0 a1
        (100. *. float_of_int (a0 - a1) /. float_of_int (max 1 a0)))
    [ "s400"; "s953"; "s1269"; "prolog"; "minmax10" ]

let ablation_guard () =
  pf "@.== Ablation: event-consistency guard (beyond the published method) ==@.";
  (* data functions that differ only where the enable is false *)
  let mk variant i =
    let c = Circuit.create (Printf.sprintf "gd%s%d" variant i) in
    let a = Circuit.add_input c "a" in
    let b = Circuit.add_input c "b" in
    let ab = Circuit.add_gate c Or [ a; b ] in
    let data =
      if variant = "plain" then b
      else Circuit.add_gate c Or [ b; Circuit.add_gate c Not [ ab ] ]
    in
    Circuit.mark_output c (Circuit.add_latch c ~enable:ab ~data ());
    Circuit.check c;
    c
  in
  let n = 10 in
  let without = ref 0 and with_g = ref 0 in
  for i = 1 to n do
    if check_verdict (mk "plain" i) (mk "dc" i) <> Verify.Equivalent then incr without;
    if check_verdict ~guard_events:true (mk "plain" i) (mk "dc" i) = Verify.Equivalent
    then incr with_g
  done;
  pf "published method:            %d/%d false negatives@." !without n;
  pf "with event-consistency guard: %d/%d proven equivalent@." !with_g n

let ablation_dchoice () =
  pf "@.== Ablation: d-choice in the feedback decomposition ==@.";
  pf "(the same circuit's conditional registers converted with the two@.";
  pf " d-choices; mixed choices can diverge when [F0, F1] is not a point.)@.@.";
  let st = Random.State.make [| 314 |] in
  let mk i =
    Workloads.fsm_datapath
      ~name:(Printf.sprintf "dc%d" i)
      ~latches:14 ~self_loops:6 ~gates:120 ~width:6
      ~seed:(Random.State.int st 10000)
  in
  let run d1 d2 =
    let agree = ref 0 and total = ref 0 in
    for i = 1 to 10 do
      let c = mk i in
      let plan = Feedback.plan_functional c in
      if plan.Feedback.converted <> [] then begin
        incr total;
        let c1 = Feedback.apply_plan ~dchoice:d1 c plan in
        let c2 = Feedback.apply_plan ~dchoice:d2 c plan in
        let exposed = List.map (Circuit.signal_name c) plan.Feedback.exposed in
        if check_verdict ~exposed c1 c2 = Verify.Equivalent then incr agree
      end
    done;
    (!agree, !total)
  in
  let a1, t1 = run Feedback.D_low Feedback.D_low in
  pf "D_low  vs D_low:   %d/%d verified equivalent@." a1 t1;
  let a2, t2 = run Feedback.D_disjoint Feedback.D_disjoint in
  pf "D_disj vs D_disj:  %d/%d verified equivalent@." a2 t2;
  let a3, t3 = run Feedback.D_low Feedback.D_disjoint in
  pf "D_low  vs D_disj:  %d/%d verified equivalent (divergence = Fig. 11 class)@." a3 t3

(* ------------------------------------------------------------------ *)
(* Baseline comparison                                                 *)
(* ------------------------------------------------------------------ *)

(* The paper's observation 3: "for only few of these sequential circuits
   the state-space can be traversed, and for fewer yet the state-space of
   the product machine" — we race the classical symbolic-traversal checker
   against the combinational reduction on B-vs-C pairs of growing size. *)
let baseline () =
  pf "@.== Baseline: product-machine traversal vs combinational reduction ==@.";
  pf "(Pipelined circuits, where the baseline's reset equivalence and the@.";
  pf " paper's exact 3-valued equivalence coincide after the flush.)@.@.";
  pf "%-22s %8s | %12s %16s | %12s@." "circuit" "latches" "traversal" "(result)"
    "reduction";
  pf "%s@." (String.make 80 '-');
  let budget = 400_000 in
  List.iter
    (fun (name, width, stages) ->
      let c = Workloads.pipeline ~name ~width ~stages ~imbalance:3 ~seed:(Hashtbl.hash name) in
      let b, copt = ok "flow" (Flow.circuits c) in
      let (bv, bstats) = Sec_baseline.check ~node_limit:budget b copt in
      let bres =
        match bv with
        | Sec_baseline.Equivalent -> "EQ"
        | Sec_baseline.Inequivalent -> "NEQ"
        | Sec_baseline.Resource_out _ -> "gave up"
      in
      let o = check_outcome b copt in
      let rres =
        match o.Verify.verdict with
        | Verify.Equivalent -> "EQ"
        | Verify.Inequivalent _ -> "NEQ"
        | Verify.Undecided _ -> "UNDEC"
      in
      pf "%-22s %8d | %10.3fs %-16s | %10.3fs %s@." name (Circuit.latch_count c)
        bstats.Sec_baseline.seconds
        (Printf.sprintf "(%s, %d st)" bres (int_of_float bstats.Sec_baseline.product_states))
        o.Verify.stats.Verify.seconds rres)
    [ ("pipe4x3", 4, 3); ("pipe6x3", 6, 3); ("pipe8x4", 8, 4); ("pipe10x4", 10, 4);
      ("pipe12x5", 12, 5); ("pipe16x6", 16, 6) ];
  (* The two notions differ on power-up-sensitive feedback state: the
     traversal checks reset equivalence from the all-zero state, under
     which a retimed circuit's transient can poison exposed feedback
     registers forever; the paper's exact 3-valued semantics marks those
     outputs undefined in BOTH circuits.  Demonstrate on an FSM circuit: *)
  let c =
    Workloads.fsm_datapath ~name:"fsm8" ~latches:8 ~self_loops:2 ~gates:48
      ~width:6 ~seed:(Hashtbl.hash "fsm8")
  in
  let b, copt = ok "flow" (Flow.circuits c) in
  let plan = Feedback.plan_structural c in
  let names = List.map (Circuit.signal_name c) plan.Feedback.exposed in
  let bv, _ = Sec_baseline.check ~node_limit:budget b copt in
  let rv = check_verdict ~exposed:names b copt in
  pf "@.semantic gap (feedback + power-up): traversal(reset-eq) = %s, reduction(exact-3v) = %s@."
    (match bv with
    | Sec_baseline.Equivalent -> "EQ"
    | Sec_baseline.Inequivalent -> "NEQ"
    | Sec_baseline.Resource_out _ -> "gave up")
    (match rv with
    | Verify.Equivalent -> "EQ"
    | Verify.Inequivalent _ -> "NEQ"
    | Verify.Undecided _ -> "UNDEC")

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  pf "@.== Micro-benchmarks (bechamel, median ns/run) ==@.";
  let open Bechamel in
  let open Toolkit in
  let c953 = Workloads.by_name "s953" in
  let plan = Feedback.plan_structural c953 in
  let names = List.map (Circuit.signal_name c953) plan.Feedback.exposed in
  let expose cc s = List.mem (Circuit.signal_name cc s) names in
  let b, copt = ok "flow" (Flow.circuits c953) in
  let problem =
    let bld = Seqprob.builder () in
    let o1, _ = ok "unroll" (Cbf.unroll ~exposed:(expose b) bld b) in
    let o2, _ = ok "unroll" (Cbf.unroll ~exposed:(expose copt) bld copt) in
    ok "problem" (Seqprob.problem bld ~outs1:o1 ~outs2:o2)
  in
  let synth953 = Synth_script.delay_script c953 in
  let tests =
    Test.make_grouped ~name:"seqver"
      [
        Test.make ~name:"t1/expose-mfvs-s953"
          (Staged.stage (fun () -> ignore (Feedback.plan_structural c953)));
        Test.make ~name:"t1/synth-script-s953"
          (Staged.stage (fun () -> ignore (Synth_script.delay_script c953)));
        Test.make ~name:"t1/retime-minperiod-s953"
          (Staged.stage (fun () ->
               ignore (Retime.min_period ~exposed:(expose synth953) synth953)));
        Test.make ~name:"t1/unroll-cbf-s953"
          (Staged.stage (fun () ->
               let bld = Seqprob.builder () in
               ignore (Cbf.unroll ~exposed:(expose b) bld b)));
        Test.make ~name:"t1/cec-sweep-s953"
          (Staged.stage (fun () ->
               ignore (Cec.check ~config:(with_engine Cec.Sweep_engine) problem)));
        Test.make ~name:"t1/cec-bdd-s953"
          (Staged.stage (fun () ->
               ignore (Cec.check ~config:(with_engine Cec.Bdd_engine) problem)));
        Test.make ~name:"t2/exposure-ex3"
          (Staged.stage (fun () ->
               ignore (Feedback.plan_functional (Workloads.by_name "ex3"))));
        (* the disabled-sink cost of an instrumentation site: one atomic
           load per emitter (the number quoted in DESIGN.md) *)
        Test.make ~name:"obs/span-disabled"
          (Staged.stage (fun () -> Obs.span ~name:"bench" (fun () -> ())));
        Test.make ~name:"obs/count-disabled"
          (Staged.stage (fun () -> Obs.count "bench" 1));
        Test.make ~name:"obs/observe-disabled"
          (Staged.stage (fun () -> Obs.observe "bench" 1.0));
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~stabilize:false () in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _instance tbl ->
      let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) tbl [] in
      List.iter
        (fun (name, r) ->
          match Analyze.OLS.estimates r with
          | Some [ est ] -> pf "%-32s %14.0f ns/run@." name est
          | Some _ | None -> pf "%-32s (no estimate)@." name)
        (List.sort compare rows))
    results

(* [--micro-obs]: the disabled-site cost gate.  A histogram site compiled
   into hot code ([Par] worker wrap, [Cec.run_one]) must stay as close to
   free as a disabled span when counters are off — one atomic load and a
   branch.  Measured with a plain best-of-5 loop rather than bechamel so
   the [--smoke] gate is a single comparable number. *)

let micro_obs ~smoke () =
  pf "@.== Obs disabled-site cost ==@.";
  let iters = 2_000_000 in
  let time f =
    for _ = 1 to 100_000 do f () done;
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do f () done;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best /. float_of_int iters *. 1e9
  in
  let span_ns = time (fun () -> Obs.span ~name:"bench" (fun () -> ())) in
  let observe_ns = time (fun () -> Obs.observe "bench" 1.0) in
  pf "  span-disabled    %6.2f ns/site@." span_ns;
  pf "  observe-disabled %6.2f ns/site@." observe_ns;
  if smoke then begin
    (* relative gate with an absolute floor so a noisy box cannot fail on
       a sub-nanosecond delta between two ~5ns sites *)
    let budget = Float.max (2. *. span_ns) (span_ns +. 15.) in
    if observe_ns > budget then begin
      pf "SMOKE FAILURE: observe-disabled %.2f ns > budget %.2f ns \
          (max of 2x span-disabled and span + 15ns)@."
        observe_ns budget;
      exit 1
    end
    else
      pf "smoke: observe-disabled %.2f ns within budget %.2f ns@." observe_ns
        budget
  end

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let has f = List.mem f args in
  let rec opt_str flag = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: tl -> opt_str flag tl
    | [] -> None
  in
  let suite_arg = opt_str "--suite" args in
  let any =
    has "--table1" || has "--table2" || has "--figs" || has "--micro"
    || has "--micro-obs" || has "--baseline" || has "--ablation-cec"
    || has "--ablation-rewrite" || has "--ablation-guard"
    || has "--ablation-synth" || has "--ablation-dchoice"
    || suite_arg <> None
  in
  let full = has "--full" in
  let smoke = has "--smoke" in
  let jobs =
    (* "auto" asks the runtime for the machine's domain count; the layout
       caps each check's pool at its bin count anyway *)
    match opt_str "--jobs" args with
    | Some "auto" -> Par.cpu_count ()
    | Some s -> (
        match int_of_string_opt s with
        | Some n -> max 1 n
        | None -> failwith (Printf.sprintf "bad --jobs %s (expected N or auto)" s))
    | None -> 1
  in
  let cache_dir = opt_str "--cache-dir" args in
  let trace = opt_str "--trace" args in
  Option.iter (fun _ -> Obs.enable ()) trace;
  (match suite_arg with
  | Some "retime" -> suite_retime ~jobs ~smoke ()
  | Some "large" -> suite_large ~jobs ~smoke ()
  | Some "serve" -> suite_serve ~jobs ~smoke ()
  | Some "hier" -> suite_hier ~jobs ~smoke ()
  | Some s ->
      failwith
        (Printf.sprintf
           "unknown --suite %s (expected: retime, large, serve, hier)" s)
  | None -> ());
  if (not any) || has "--table1" then table1 ~full ~jobs ~smoke ~cache_dir ();
  if (not any) || has "--table2" then table2 ();
  if (not any) || has "--figs" then figs ();
  if (not any) || has "--baseline" then baseline ();
  if (not any) || has "--ablation-cec" then ablation_cec ();
  if (not any) || has "--ablation-rewrite" then ablation_rewrite ();
  if (not any) || has "--ablation-guard" then ablation_guard ();
  if (not any) || has "--ablation-synth" then ablation_synth_rewrite ();
  if (not any) || has "--ablation-dchoice" then ablation_dchoice ();
  if (not any) || has "--micro" then micro ();
  if (not any) || has "--micro-obs" then micro_obs ~smoke ();
  match trace with
  | Some path ->
      let oc = open_out path in
      Obs.Chrome.write oc (Obs.collect ());
      close_out oc;
      pf "wrote trace %s@." path
  | None -> ()
