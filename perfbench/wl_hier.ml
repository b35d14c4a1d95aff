(* Workload [hier_edit]: an edit loop over [Workloads.hier_suite].  Each
   op resynthesizes one module of a right-hand design with a fresh seed
   and re-runs [Hier.check] against one long-lived store, so only the
   edited module's ancestor chain is re-checked and the rest answers from
   the store.  Two ops in every eleven are the suite's known mutants,
   whose verdict must name the broken module.  This covers the
   hier planner and module-granularity store reuse; the store log grows
   over each segment of the run. *)

open Harness

let judge ~expect (r : Hier.report) =
  match (r.Hier.verdict, expect) with
  | Hier.Undecided { module_; reason }, _ ->
      Failed (Printf.sprintf "undecided in %s: %s" module_ reason)
  | Hier.Equivalent, `Eq -> Pass
  | Hier.Equivalent, `Neq m -> Wrong ("EQUIVALENT on the mutant of " ^ m)
  | Hier.Inequivalent { offending; _ }, `Eq ->
      Wrong ("INEQUIVALENT (blaming " ^ offending ^ ") on a resynthesized edit")
  | Hier.Inequivalent { offending; _ }, `Neq m ->
      if offending = m then Pass
      else Wrong (Printf.sprintf "mutant of %s blamed on %s" m offending)

let store_layers (before : Store.info) (after : Store.info) =
  [
    ("store.hits", float_of_int (after.Store.hits - before.Store.hits));
    ("store.misses", float_of_int (after.Store.misses - before.Store.misses));
    ("store.writes", float_of_int (after.Store.writes - before.Store.writes));
  ]

let hit_ratio mean =
  let h = mean "store.hits" and m = mean "store.misses" in
  if h +. m > 0. then h /. (h +. m) else 0.

let report_layers (r : Hier.report) =
  let module_s =
    List.fold_left (fun a m -> a +. m.Hier.rm_seconds) 0. r.Hier.modules
  in
  [
    ("hier.modules_checked", float_of_int r.Hier.checked);
    ("hier.module_store_hits", float_of_int r.Hier.store_hits);
    ("hier.flat_fallbacks", float_of_int r.Hier.flat_fallbacks);
    ("hier.module_check_s", module_s);
    ("hier.planner_s", r.Hier.seconds -. module_s);
  ]

(* Time to reopen the store as the run left it: what the next process
   pays before its first hit. *)
let reopen_layers dir =
  let st, open_s = time (fun () -> Store.open_ dir) in
  let info = Store.info st in
  Store.close st;
  [ ("store.open_s", open_s); ("store.log_bytes", float_of_int info.Store.file_bytes) ]

type entry = Edit of int * string | Mutant of int

let setup ~seed ~jobs ~tmp =
  let suite = Workloads.hier_suite () in
  let pair name = List.find (fun (n, _, _, _) -> n = name) suite in
  let edits = [| pair "hfifo"; pair "halu" |]
  and mutants = [| pair "hfifo_mut"; pair "halu_mut" |] in
  (* one round: an edit of every module of both right-hand designs and
     each mutant once *)
  let menu =
    Array.of_list
      (List.concat
         (List.mapi
            (fun k (_, _, r, _) ->
              List.map (fun m -> Edit (k, m)) (Hier.module_order r))
            (Array.to_list edits))
      @ [ Mutant 0; Mutant 1 ])
  in
  let pick = round_robin ~seed (Array.length menu) in
  let dir = Filename.concat tmp "store" in
  let store = Store.open_ dir in
  let check l r = Hier.check ~jobs ~store l r in
  (* warm-up: every suite pair once, cold, so the store holds the
     unedited modules before the timed stream starts *)
  List.iter (fun (_, l, r, _) -> ignore (check l r)) suite;
  let prepare ~traced i =
    let k = pick i in
    let l, r, expect =
      match menu.(k) with
      | Mutant m ->
          let _, l, r, expect = mutants.(m) in
          (l, r, expect)
      | Edit (p, name) ->
          let _, l, r, _ = edits.(p) in
          let seed = Hashtbl.hash (seed, i) in
          (l, Hier.map_module r ~name ~f:(Hier.resynthesize ~seed), `Eq)
    in
    let before = if traced then Some (Store.info store) else None in
    ( k,
      fun () ->
        let rep = check l r in
        {
          check = (fun () -> judge ~expect rep);
          layers =
            (fun () ->
              match before with
              | Some b -> report_layers rep @ store_layers b (Store.info store)
              | None -> []);
        } )
  in
  {
    busy_domains = jobs;
    prepare;
    finish =
      (fun () ->
        Store.close store;
        reopen_layers dir);
    teardown = (fun () -> Store.close store);
  }

(* peak RSS after 50 rounds *)
let workload =
  {
    name = "hier_edit";
    jobs = 1;
    rss_probe_ops = Some 550;
    nominal_ops_per_s = 100.;
    wall_layers = [ "hier.module_check_s"; "hier.planner_s" ];
    replayed = false;
    ratios = (fun ~mean -> [ ("store.hit_ratio", hit_ratio mean) ]);
    setup;
  }
