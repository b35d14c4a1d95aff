(* The op-stream harness every workload runs on.

   A workload is a long seeded stream of independent operations ("ops"),
   each with a verdict known by construction.  The harness drives the
   stream from one closed-loop client (the next op is issued only when
   the previous one has answered), times every op on its own, and checks
   the verdicts after the stream has ended, so checking never lands
   inside a timed op.  End-to-end metrics are statistics over the
   per-op samples, not one total wall time: a short host stall moves one
   sample, not the result. *)

type outcome =
  | Pass
  | Failed of string  (** undecided, shed, errored or raised *)
  | Wrong of string  (** a verdict contradicting the known answer *)

type result = {
  check : unit -> outcome;  (** run after the stream, untimed *)
  layers : unit -> (string * float) list;
      (** traced ops only: this op's per-layer times and work counts,
          collected right after the op, untimed *)
}

type session = {
  busy_domains : int;  (** compute domains the workload configured *)
  prepare : traced:bool -> int -> int * (unit -> result);
      (** [prepare ~traced i] builds op [i]'s inputs (untimed) and
          returns the op's stratum (its entry in the workload's menu) and
          the op itself, which the harness times *)
  finish : unit -> (string * float) list;
      (** per-layer metrics measured once, after the session's last op
          (server statistics, the store as left); stops the session *)
  teardown : unit -> unit;  (** idempotent *)
}

type workload = {
  name : string;
  jobs : int;
      (** the domains the workload's checks may use, capped at the host's
          CPUs; one wherever the workload does not need more *)
  rss_probe_ops : int option;
      (** read peak RSS after this many ops (whole rounds), so it measures
          a fixed amount of work, not however many ops the host managed;
          [None]: at the end of the stream *)
  nominal_ops_per_s : float;
      (** a conservative op rate; fixes the tail percentile from the run
          length alone, so host speed cannot flip it between runs *)
  wall_layers : string list;
      (** the traced layers that together make up one op's wall time *)
  replayed : bool;
      (** the traced op replays the untraced one layer by layer instead
          of making the same call; its layers are then reconciled with
          the untraced ops' wall time *)
  ratios : mean:(string -> float) -> (string * float) list;
      (** per-layer ratios derived from the per-op layer means *)
  setup : seed:int -> jobs:int -> tmp:string -> session;
      (** generation, serialization, store or server start-up and the
          untimed warm-up prefix *)
}

let now = Obs.Clock.now

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* One timed op.  Plain data, so a segment process can hand its samples
   to the run that pools them. *)
type sample = {
  idx : int;
  stratum : int;
  traced : bool;
  lat : float;
  op_cpu : float;
  layer_values : (string * float) list;
}

let failed_op e =
  let msg = Printexc.to_string e in
  { check = (fun () -> Failed ("raised " ^ msg)); layers = (fun () -> []) }

(* A layer a traced op entered several times reports the sum. *)
let sum_by_key kvs =
  List.fold_left
    (fun acc (k, v) ->
      match List.assoc_opt k acc with
      | Some v0 -> (k, v0 +. v) :: List.remove_assoc k acc
      | None -> (k, v) :: acc)
    [] kvs

(* Runs a stream of ops on session [s].  [limit] is either a deadline in
   seconds or an exact op count; the latter makes two runs at one seed
   issue identical streams.  [traced i] says whether op [i] is traced.
   [on_probe ()] runs once, right after op [rss_probe - 1].  Returns the
   samples in op order, each with the op's result. *)
let run_stream s ~rss_probe ~on_probe ~traced ~limit =
  let t_start = now () in
  let more i =
    match limit with
    | `Seconds sec -> now () -. t_start < sec
    | `Ops n -> i < n
  in
  let rec go i acc =
    if not (more i) then Array.of_list (List.rev acc)
    else begin
      let traced = traced i in
      let stratum, op =
        try s.prepare ~traced i with e -> (-1, fun () -> failed_op e)
      in
      let c0 = cpu () in
      let t0 = now () in
      let res = try op () with e -> failed_op e in
      let lat = now () -. t0 in
      let op_cpu = cpu () -. c0 in
      let layer_values = if traced then sum_by_key (res.layers ()) else [] in
      if Some (i + 1) = rss_probe then on_probe ();
      go (i + 1) (({ idx = i; stratum; traced; lat; op_cpu; layer_values }, res) :: acc)
    end
  in
  go 0 []

type tally = { attempted : int; failed : int; wrong : string list }

let tally ran =
  Array.fold_left
    (fun t (x, res) ->
      match res.check () with
      | Pass -> { t with attempted = t.attempted + 1 }
      | Failed _ -> { t with attempted = t.attempted + 1; failed = t.failed + 1 }
      | Wrong why ->
          {
            t with
            attempted = t.attempted + 1;
            wrong = Printf.sprintf "op %d: %s" x.idx why :: t.wrong;
          })
    { attempted = 0; failed = 0; wrong = [] }
    ran

(* The traced and untraced ops of a stream, as two streams. *)
let split st =
  let part t =
    Array.of_list (List.filter (fun x -> x.traced = t) (Array.to_list st))
  in
  (part true, part false)

(* ---- per-op statistics ----

   Every statistic weights a sample by one over the number of samples of
   its stratum, so each menu entry counts once, as in one full round of
   the stream.  Where the deadline cuts the last round then changes how
   precisely an entry is measured, not how much it counts. *)

let weights st =
  let count = Hashtbl.create 16 in
  Array.iter
    (fun x ->
      Hashtbl.replace count x.stratum
        (1 + Option.value ~default:0 (Hashtbl.find_opt count x.stratum)))
    st;
  Array.map (fun x -> 1. /. float_of_int (Hashtbl.find count x.stratum)) st

let weighted_mean st f =
  let w = weights st in
  let num = ref 0. and den = ref 0. in
  Array.iteri
    (fun i x ->
      num := !num +. (w.(i) *. f x);
      den := !den +. w.(i))
    st;
  if !den > 0. then !num /. !den else 0.

(* ln Gamma(x) for x > 0 (Lanczos, as in Numerical Recipes' gammln). *)
let log_gamma x =
  let cof =
    [| 76.18009172947146; -86.50532032941677; 24.01409824083091;
       -1.231739572450155; 0.1208650973866179e-2; -0.5395239384953e-5 |]
  in
  let t = x +. 5.5 in
  let t = t -. ((x +. 0.5) *. log t) in
  let ser = ref 1.000000000190015 and y = ref x in
  Array.iter
    (fun c ->
      y := !y +. 1.;
      ser := !ser +. (c /. !y))
    cof;
  -.t +. log (2.5066282746310005 *. !ser /. x)

(* The regularized incomplete beta function I_x(a, b), by its continued
   fraction (Numerical Recipes' betai/betacf). *)
let incomplete_beta a b x =
  let cf a b x =
    let tiny = 1e-300 in
    let nz v = if Float.abs v < tiny then tiny else v in
    let c = ref 1. and d = ref (1. /. nz (1. -. ((a +. b) *. x /. (a +. 1.)))) in
    let h = ref !d in
    (try
       for m = 1 to 10_000 do
         let m = float_of_int m in
         let step aa =
           d := 1. /. nz (1. +. (aa *. !d));
           c := nz (1. +. (aa /. !c));
           !d *. !c
         in
         h := !h *. step (m *. (b -. m) *. x /. ((a +. (2. *. m) -. 1.) *. (a +. (2. *. m))));
         let del =
           step (-.(a +. m) *. (a +. b +. m) *. x /. ((a +. (2. *. m)) *. (a +. (2. *. m) +. 1.)))
         in
         h := !h *. del;
         if Float.abs (del -. 1.) < 1e-12 then raise Exit
       done
     with Exit -> ());
    !h
  in
  if x <= 0. then 0.
  else if x >= 1. then 1.
  else
    let bt =
      exp
        (log_gamma (a +. b) -. log_gamma a -. log_gamma b
        +. (a *. log x) +. (b *. log (1. -. x)))
    in
    if x < (a +. 1.) /. (a +. b +. 2.) then bt *. cf a b x /. a
    else 1. -. (bt *. cf b a (1. -. x) /. b)

(* The weighted Harrell-Davis estimate of quantile [q] of [values]: a
   Beta-weighted mean of all sorted values, the value at cumulative weight
   share c weighing as much as Beta((n+1)q, (n+1)(1-q)) puts around c,
   with n the effective sample count of the weights.  Unlike the
   nearest-rank quantile it does not jump from one sample to the next
   when the weights or the samples near the quantile shift a little,
   which with few samples per stratum (or per process) is most of a
   nearest-rank median's run-to-run noise. *)
let harrell_davis ?weights values q =
  let n = Array.length values in
  if n = 0 then 0.
  else begin
    let w = match weights with Some w -> w | None -> Array.make n 1. in
    let order = Array.init n Fun.id in
    Array.sort (fun a b -> compare values.(a) values.(b)) order;
    let total = Array.fold_left ( +. ) 0. w in
    let n_eff = total *. total /. Array.fold_left (fun a x -> a +. (x *. x)) 0. w in
    let a = q *. (n_eff +. 1.) and b = (1. -. q) *. (n_eff +. 1.) in
    let acc = ref 0. and cum = ref 0. and prev = ref 0. in
    Array.iter
      (fun i ->
        cum := !cum +. (w.(i) /. total);
        let c = incomplete_beta a b (Float.min 1. !cum) in
        acc := !acc +. ((c -. !prev) *. values.(i));
        prev := c)
      order;
    !acc
  end

let latency_quantile st q =
  harrell_davis ~weights:(weights st) (Array.map (fun x -> x.lat) st) q

let beyond st v =
  Array.fold_left (fun a x -> if x.lat > v then a + 1 else a) 0 st

let ladder = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

(* The highest ladder step that leaves at least ten samples beyond it at
   the workload's nominal op count for the run length.  It is fixed from
   that count alone: stepping down when a slow run fell short would swap
   one percentile for another between runs, a far larger jump than the
   slowdown itself.  The record gives the samples actually beyond it. *)
let tail_percentile ~expected =
  Option.value ~default:0.5
    (List.find_opt (fun q -> float_of_int expected *. (1. -. q) >= 10.) ladder)

(* Weighted mean per op of every layer value the traced ops reported. *)
let layer_means st =
  let keys = Hashtbl.create 64 in
  Array.iter
    (fun x -> List.iter (fun (k, _) -> Hashtbl.replace keys k ()) x.layer_values)
    st;
  let means = Hashtbl.create 64 in
  Hashtbl.iter
    (fun k () ->
      Hashtbl.replace means k
        (weighted_mean st (fun x ->
             Option.value ~default:0. (List.assoc_opt k x.layer_values))))
    keys;
  fun k -> Option.value ~default:0. (Hashtbl.find_opt means k)

let mean_latency st = weighted_mean st (fun x -> x.lat)

(* Closed-loop throughput with one client: one over the mean latency,
   blind to the client's own untimed input preparation. *)
let ops_per_s st =
  let m = mean_latency st in
  if m > 0. then 1. /. m else 0.

(* Per stratum: sample count and median latency, for the run record. *)
let strata_summary st =
  let by = Hashtbl.create 16 in
  Array.iter
    (fun x ->
      Hashtbl.replace by x.stratum
        (x.lat :: Option.value ~default:[] (Hashtbl.find_opt by x.stratum)))
    st;
  Hashtbl.fold (fun k lats acc -> (k, lats) :: acc) by []
  |> List.sort compare
  |> List.map (fun (k, lats) ->
         let a = Array.of_list lats in
         Array.sort compare a;
         (k, Array.length a, Obs.Histogram.nearest_rank a 0.5))

(* Traced over untraced throughput, on the strata both streams saw. *)
let overhead_ratio ~traced ~plain =
  let mean st k =
    let xs = List.filter (fun x -> x.stratum = k) (Array.to_list st) in
    match xs with
    | [] -> None
    | _ ->
        Some
          (List.fold_left (fun a x -> a +. x.lat) 0. xs
          /. float_of_int (List.length xs))
  in
  let strata =
    List.sort_uniq compare (Array.to_list (Array.map (fun x -> x.stratum) traced))
  in
  let t, p =
    List.fold_left
      (fun (t, p) k ->
        match (mean traced k, mean plain k) with
        | Some a, Some b -> (t +. a, p +. b)
        | _ -> (t, p))
      (0., 0.) strata
  in
  if t > 0. then p /. t else 1.

(* Process CPU (all domains) over each op, weighted like the latency. *)
let cpu_per_op st = weighted_mean st (fun x -> x.op_cpu)

(* ---- host diagnostics ---- *)

(* A fixed pure-CPU loop: its time at the start and end of a run tells
   host-speed drift apart from program variance. *)
let calibrate () =
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to 20_000_000 do
    x := ((!x * 1103515245) + i) land 0xFFFFFF
  done;
  let dt = now () -. t0 in
  if !x < 0 then assert false;
  dt

let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec find () =
      let line = input_line ic in
      match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
      | Some kb -> float_of_int kb /. 1024.
      | None -> find ()
    in
    find ()
  in
  try from_proc ()
  with _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter
        (fun e -> remove_tree (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Seeded Fisher-Yates: the order of round [r] of a stream. *)
let shuffle ~seed ~round a =
  let a = Array.copy a in
  let st = Random.State.make [| seed; round; 0x5EC |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The menu entry of op [i] in a stream that replays a menu of [n]
   entries in rounds, each round a fresh seeded permutation of the menu:
   every round holds the same mix, so the per-op distribution barely
   depends on the seed.  The entry is the op's stratum. *)
let round_robin ~seed n =
  let rounds = Hashtbl.create 16 in
  fun i ->
    let r = i / n in
    let order =
      match Hashtbl.find_opt rounds r with
      | Some o -> o
      | None ->
          let o = shuffle ~seed ~round:r (Array.init n Fun.id) in
          Hashtbl.replace rounds r o;
          o
    in
    order.(i mod n)
