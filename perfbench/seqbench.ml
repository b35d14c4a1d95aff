(* seqbench: one run of one workload.

     seqbench --workload NAME --seed N --seconds S --trace 0|1
              [--jobs J] [--rev REV] [--ops N]

   A run is made of [segments] segments, run one after the other, each in
   a fresh process (this program again, with --segment K --out FILE).  A
   segment sets the workload up, times a stream of ops for S / segments
   seconds, checks the verdicts and hands its samples back; the run pools
   them.  How fast a process goes on this kind of host depends on the
   CPU it lands on and what shares that CPU with it, and one op's time
   can shift by a fifth from one process to the next, so statistics that
   rest on one process repeat badly.  Pooling several processes averages
   that out.

   With --trace 0 every segment sets the workload up twice, then
   times its stream; the run prints the end-to-end metrics, medians (in
   the Harrell-Davis estimate) over the pooled op samples and over all
   set-ups.  With --trace 1 a segment sets up once and traces every odd
   op of its stream; the run prints the per-layer metrics of the traced
   ops, their reconciliation with the op wall time, and the tracing
   overhead as traced over untraced throughput.  --ops N replaces the deadline by an exact op count in a
   single segment, all ops traced, and prints every op's layer values,
   for comparing work counts between two runs.

   The last line of stdout is the result object; the line before it is
   the run record (host, revision, seed, op counts, tail percentile,
   calibration).  Exit status 1 means some verdict contradicted its known
   answer, 2 a usage or load-discipline error. *)

open Harness

let workloads = [ Wl_flow.workload; Wl_sec.workload; Wl_serve.workload; Wl_hier.workload ]

let per_layer =
  [
    ("op.wall_s", "s");
    ("feedback.expose_s", "s");
    ("synth.script_s", "s");
    ("retiming.min_period_s", "s");
    ("retiming.min_area_s", "s");
    ("circuit.parse_s", "s");
    ("cbf.unroll_s", "s");
    ("cbf.aig_nodes", "count");
    ("cec.check_wall_s", "s");
    ("cec.layout_s", "s");
    ("cec.sat_cpu_s", "s");
    ("cec.sweep_cpu_s", "s");
    ("cec.bdd_cpu_s", "s");
    ("cec.cpu_over_wall", "ratio");
    ("cec.sat_calls", "count");
    ("cec.conflicts", "count");
    ("cec.sim_rounds", "count");
    ("cec.partitions", "count");
    ("cec.monolithic_share", "ratio");
    ("cec.undecided_partitions", "count");
    ("store.hits", "count");
    ("store.writes", "count");
    ("store.hit_ratio", "ratio");
    ("store.open_s", "s");
    ("store.log_bytes", "bytes");
    ("server.queue_wait_p50_s", "s");
    ("server.request_p50_s", "s");
    ("server.wire_s", "s");
    ("hier.modules_checked", "count");
    ("hier.module_store_hits", "count");
    ("hier.flat_fallbacks", "count");
    ("hier.module_check_s", "s");
    ("hier.planner_s", "s");
    ("unattributed_s", "s");
    ("unattributed_share", "ratio");
    ("trace.overhead_ratio", "ratio");
  ]

(* The traced layers must sum to the op wall time within this share of
   it; the gap is reported as unattributed_s either way. *)
let reconcile_tolerance = 0.10
let segments = 5
let setup_repeats = 2

let usage () =
  prerr_endline
    "usage: seqbench --workload NAME --seed N --seconds S --trace 0|1 \
     [--jobs J] [--rev REV] [--ops N]";
  exit 2

type args = {
  w : workload;
  seed : int;
  seconds : int;
  trace : bool;
  jobs : int;
  rev : string;
  ops : int option;
  segment : (int * string) option;  (** this process runs segment K into FILE *)
}

let args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = Hashtbl.find_opt tbl k in
  let int k = Option.map (fun v -> try int_of_string v with _ -> usage ()) (get k) in
  let need = function Some v -> v | None -> usage () in
  let w =
    let n = need (get "workload") in
    match List.find_opt (fun w -> w.name = n) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ n);
        exit 2
  in
  {
    w;
    seed = need (int "seed");
    seconds = need (int "seconds");
    trace = need (int "trace") = 1;
    jobs = Option.value ~default:(Par.cpu_count ()) (int "jobs");
    rev = Option.value ~default:"unknown" (get "rev");
    ops = int "ops";
    segment =
      (match (int "segment", get "out") with
      | Some k, Some f -> Some (k, f)
      | None, None -> None
      | _ -> usage ());
  }

let metric (name, unit_) v =
  (name, Sjson.Obj [ ("value", Sjson.Float v); ("unit", Sjson.String unit_) ])

(* What one segment hands back to the run: plain data, marshalled. *)
type segment = {
  samples : sample array;
  setups_s : float list;
  peak_rss : float;
  finish_values : (string * float) list;
  busy : int;
  attempted : int;
  failed : int;
  wrong : string list;
}

let scratch = ".perfbench_tmp"

(* One segment, in its own process. *)
let run_segment a k out =
  let w = a.w in
  let seed = Hashtbl.hash (a.seed, k) in
  let tmp = Filename.concat scratch (Printf.sprintf "%s-%d" w.name (Unix.getpid ())) in
  remove_tree tmp;
  Unix.mkdir tmp 0o755;
  let setup j =
    let dir = Filename.concat tmp (Printf.sprintf "s%d" j) in
    Unix.mkdir dir 0o755;
    let s, dt = time (fun () -> w.setup ~seed ~jobs:(min w.jobs a.jobs) ~tmp:dir) in
    if s.busy_domains > a.jobs then begin
      s.teardown ();
      Printf.eprintf "load discipline: %d busy domains exceed %d cores\n"
        s.busy_domains a.jobs;
      exit 2
    end;
    (s, dt)
  in
  (* every set-up but the last is only timed *)
  let rec setups j acc =
    let s, dt = setup j in
    if j + 1 < (if a.trace then 1 else setup_repeats) then begin
      s.teardown ();
      setups (j + 1) (dt :: acc)
    end
    else (s, List.rev (dt :: acc))
  in
  let s, setups_s = setups 0 [] in
  (* the peak RSS is the stream's own: set-up garbage is collected and
     the kernel's high-water mark reset before it starts *)
  Gc.compact ();
  reset_peak_rss ();
  let rss = ref None in
  let ran =
    run_stream s ~rss_probe:w.rss_probe_ops
      ~on_probe:(fun () -> rss := Some (peak_rss_mb ()))
      ~traced:(fun i -> a.trace && (a.ops <> None || i mod 2 = 1))
      ~limit:
        (match a.ops with
        | Some n -> `Ops n
        | None -> `Seconds (float_of_int a.seconds /. float_of_int segments))
  in
  let peak_rss = match !rss with Some r -> r | None -> peak_rss_mb () in
  let finish_values = if a.trace then s.finish () else (s.teardown (); []) in
  let t = tally ran in
  remove_tree tmp;
  let seg =
    {
      samples = Array.map fst ran;
      setups_s;
      peak_rss;
      finish_values;
      busy = s.busy_domains;
      attempted = t.attempted;
      failed = t.failed;
      wrong = t.wrong;
    }
  in
  let oc = open_out_bin out in
  Marshal.to_channel oc (seg : segment) [];
  close_out oc

(* Runs the segments one after the other, each to its end. *)
let run_segments a =
  let n = if a.ops = None then segments else 1 in
  List.init n (fun k ->
      let out =
        Filename.concat scratch (Printf.sprintf "%s-%d.seg%d" a.w.name (Unix.getpid ()) k)
      in
      let argv =
        [
          Sys.executable_name; "--workload"; a.w.name; "--seed"; string_of_int a.seed;
          "--seconds"; string_of_int a.seconds; "--trace"; (if a.trace then "1" else "0");
          "--jobs"; string_of_int a.jobs; "--rev"; a.rev; "--segment"; string_of_int k;
          "--out"; out;
        ]
        @ match a.ops with Some o -> [ "--ops"; string_of_int o ] | None -> []
      in
      let pid =
        Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin
          Unix.stderr Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 ->
          let ic = open_in_bin out in
          let (seg : segment) =
            Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Marshal.from_channel ic)
          in
          Sys.remove out;
          seg
      | _, (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c) ->
          Printf.eprintf "segment %d ended with status %d\n" k c;
          (try Sys.remove out with Sys_error _ -> ());
          remove_tree (Filename.concat scratch (Printf.sprintf "%s-%d" a.w.name pid));
          (try Unix.rmdir scratch with Unix.Unix_error _ -> ());
          exit 2)

(* The per-layer metrics of a traced run, and what the record says about
   them. *)
let traced_metrics a segs all =
  let w = a.w in
  let traced, plain = split all in
  (* a replayed op is reconciled with the untraced ops, so both sides
     keep only the strata they share; with every op traced (--ops) there
     are none, and the replay is reconciled with itself *)
  let against_plain = w.replayed && Array.length plain > 0 in
  let st, plain =
    if against_plain then
      let has xs k = Array.exists (fun x -> x.stratum = k) xs in
      let keep xs other =
        Array.of_list (List.filter (fun x -> has other x.stratum) (Array.to_list xs))
      in
      (keep traced plain, keep plain traced)
    else (traced, plain)
  in
  let mean = layer_means st in
  (* values measured once per segment: their mean over segments *)
  let finish_mean k =
    let vs = List.filter_map (fun s -> List.assoc_opt k s.finish_values) segs in
    match vs with
    | [] -> None
    | _ -> Some (List.fold_left ( +. ) 0. vs /. float_of_int (List.length vs))
  in
  let derived = w.ratios ~mean in
  let value k =
    match finish_mean k with
    | Some v -> v
    | None -> (
        match List.assoc_opt k derived with Some v -> v | None -> mean k)
  in
  let wall = mean_latency (if against_plain then plain else st) in
  let unattributed =
    wall -. List.fold_left (fun acc k -> acc +. value k) 0. w.wall_layers
  in
  let share = if wall > 0. then unattributed /. wall else 0. in
  let overhead = overhead_ratio ~traced:st ~plain in
  let value k =
    match k with
    | "op.wall_s" -> wall
    | "unattributed_s" -> unattributed
    | "unattributed_share" -> share
    | "trace.overhead_ratio" -> overhead
    | k -> value k
  in
  let per_op =
    match a.ops with
    | None -> []
    | Some _ ->
        [
          ( "per_op_layers",
            Sjson.List
              (Array.to_list
                 (Array.map
                    (fun x ->
                      Sjson.Obj
                        [
                          ("idx", Sjson.Int x.idx);
                          ("stratum", Sjson.Int x.stratum);
                          ( "layers",
                            Sjson.Obj
                              (List.map (fun (k, v) -> (k, Sjson.Float v)) x.layer_values)
                          );
                        ])
                    traced)) );
        ]
  in
  ( List.map (fun ((k, _) as m) -> metric m (value k)) per_layer,
    [
      ("reconcile_layers", Sjson.List (List.map (fun k -> Sjson.String k) w.wall_layers));
      ( "reconcile_wall",
        Sjson.String (if against_plain then "untraced ops, same strata" else "traced ops") );
      ("reconcile_tolerance", Sjson.Float reconcile_tolerance);
      ("reconciled", Sjson.Bool (Float.abs share <= reconcile_tolerance));
    ]
    @ per_op )

(* The end-to-end metrics of an untraced run, and what the record says
   about them. *)
let plain_metrics a segs st =
  let w = a.w in
  let setups = List.concat_map (fun s -> s.setups_s) segs in
  let expected = int_of_float (w.nominal_ops_per_s *. float_of_int a.seconds) in
  let q = tail_percentile ~expected in
  let tail = latency_quantile st q in
  let rss = List.map (fun s -> s.peak_rss) segs in
  ( [
      metric ("setup_s", "s") (harrell_davis (Array.of_list setups) 0.5);
      metric ("ops_per_s", "1/s") (ops_per_s st);
      metric ("latency_p50_s", "s") (latency_quantile st 0.5);
      metric ("latency_tail_s", "s") tail;
      metric ("cpu_per_op_s", "s") (cpu_per_op st);
      metric ("peak_rss_mb", "MB") (List.fold_left Float.max 0. rss);
    ],
    [
      ("tail_percentile", Sjson.Float q);
      ("tail_samples_beyond", Sjson.Int (beyond st tail));
      ( "peak_rss_after_ops",
        match w.rss_probe_ops with Some n -> Sjson.Int n | None -> Sjson.Null );
      ("peak_rss_segments_mb", Sjson.List (List.map (fun r -> Sjson.Float r) rss));
      ( "strata",
        Sjson.List
          (List.map
             (fun (k, n, p50) ->
               Sjson.Obj
                 [ ("stratum", Sjson.Int k); ("ops", Sjson.Int n); ("p50_s", Sjson.Float p50) ])
             (strata_summary st)) );
      ( "setup_samples_s",
        Sjson.List
          (List.map (fun s -> Sjson.List (List.map (fun d -> Sjson.Float d) s.setups_s)) segs)
      );
    ] )

let run a =
  (try Unix.mkdir scratch 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let calib_start = calibrate () in
  let segs = run_segments a in
  let calib_end = calibrate () in
  (try Unix.rmdir scratch with Unix.Unix_error _ -> ());
  let all = Array.concat (List.map (fun s -> s.samples) segs) in
  let metrics, extra =
    if a.trace then traced_metrics a segs all else plain_metrics a segs all
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 segs in
  let attempted = sum (fun s -> s.attempted) and failed = sum (fun s -> s.failed) in
  let wrong = List.concat_map (fun s -> s.wrong) segs in
  List.iter (fun m -> prerr_endline ("wrong verdict: " ^ m)) wrong;
  let record =
    Sjson.Obj
      ([
         ("workload", Sjson.String a.w.name);
         ("seed", Sjson.Int a.seed);
         ("seconds", Sjson.Int a.seconds);
         ("trace", Sjson.Bool a.trace);
         ("jobs", Sjson.Int (min a.w.jobs a.jobs));
         ("cpus", Sjson.Int a.jobs);
         ("cores", Sjson.Int (Domain.recommended_domain_count ()));
         ("clients", Sjson.Int 1);
         ("busy_domains", Sjson.Int (List.fold_left (fun m s -> max m s.busy) 0 segs));
         ("segments", Sjson.Int (List.length segs));
         ("ocaml_version", Sjson.String Sys.ocaml_version);
         ("rev", Sjson.String a.rev);
         ("ops", Sjson.Int (Array.length all));
         ( "segment_ops",
           Sjson.List (List.map (fun s -> Sjson.Int (Array.length s.samples)) segs) );
         ("attempted", Sjson.Int attempted);
         ("failed", Sjson.Int failed);
         ( "failed_ratio",
           Sjson.Float (float_of_int failed /. float_of_int (max 1 attempted)) );
         ("wrong", Sjson.Int (List.length wrong));
         ("calibration_start_s", Sjson.Float calib_start);
         ("calibration_end_s", Sjson.Float calib_end);
       ]
      @ extra)
  in
  print_endline (Sjson.to_string (Sjson.Obj [ ("record", record) ]));
  print_endline
    (Sjson.to_string
       (Sjson.Obj
          [
            ("correct", Sjson.Bool (wrong = []));
            ("attempted", Sjson.Int attempted);
            ("failed", Sjson.Int failed);
            ("metrics", Sjson.Obj metrics);
          ]));
  exit (if wrong = [] then 0 else 1)

let () =
  let a = args () in
  match a.segment with Some (k, out) -> run_segment a k out | None -> run a
