(* Workload [serve]: an in-process [Server.start] with a persistent store
   in a fresh directory, driven by a closed-loop [Server.Client]
   connection replaying a seeded request stream.  The stream mixes
   repeats of pairs the server has already answered (cache and store
   reads) with fresh [Hier.resynthesize] variants (cold cones and store
   writes) and NEQ mutants; circuits travel both as [@name] and as inline
   netlist text.  This is the only workload covering the server queue,
   the wire format, netlist parsing and the store with reads beside
   writes: a change that speeds hits at the cost of misses shows as p50
   against the tail.

   One client: a second one would share the runtime lock of the main
   domain with the server's reader threads and make every latency depend
   on thread scheduling. *)

open Harness

(* Registered Table-1 circuits: the left side of every request. *)
let bases = [| "s953"; "s641"; "s1269"; "prolog"; "s4863"; "s400" |]

type kind = Repeat of int | Fresh of int | Mutant

(* One round, one stratum per entry: every hot pair twice, a fresh
   variant of every base and one mutant.  An entry is one base, so the
   share of misses on the largest base does not depend on a draw.
   Repeats are two thirds of the round, so the median lies among the
   hits of several bases, and the tail percentile inside the slowest
   base's misses. *)
let round =
  let n = Array.length bases in
  Array.concat
    [
      Array.init n (fun b -> Repeat b);
      Array.init n (fun b -> Repeat b);
      Array.init n (fun b -> Fresh b);
      [| Mutant |];
    ]

type base = { name : string; circuit : Circuit.t; exposed : string list }

type request = {
  wire : Sjson.t;  (** the check request, id excluded *)
  inline_texts : string list;
  expect : [ `Eq | `Neq of base * string ];
      (** a mutant keeps its base and right-hand text, to replay the
          counterexample after the stream *)
}

let str j k = Option.bind (Sjson.member k j) Sjson.get_string
let num j k = Option.bind (Sjson.member k j) Sjson.get_float
let obj j k = Option.value ~default:Sjson.Null (Sjson.member k j)

(* A check of base [b] against [right]; [inline_left] sends the left side
   as text instead of by name. *)
let make_request ~inline_left ~mutant b right =
  let rtext = Netlist_io.to_string right in
  let ltext = if inline_left then Some (Netlist_io.to_string b.circuit) else None in
  {
    wire =
      Sjson.Obj
        [
          ("op", Sjson.String "check");
          ("left", Sjson.String (match ltext with Some t -> t | None -> "@" ^ b.name));
          ("right", Sjson.String rtext);
          ("exposed", Sjson.String "auto");
        ];
    inline_texts = rtext :: Option.to_list ltext;
    expect = (if mutant then `Neq (b, rtext) else `Eq);
  }

let cex_of resp =
  Option.bind (Sjson.member "cex" resp) Sjson.get_list
  |> Option.map
       (List.filter_map (fun p ->
            match Sjson.get_list p with
            | Some [ v; b ] -> (
                match (Sjson.get_string v, Sjson.get_bool b) with
                | Some v, Some b -> Some (Seqprob.Var.of_string v, b)
                | _ -> None)
            | _ -> None))

let judge expect resp =
  match (str resp "verdict", expect) with
  | None, _ ->
      Failed ("error: " ^ Option.value ~default:"no verdict" (str resp "error"))
  | Some "undecided", _ ->
      Failed ("undecided: " ^ Option.value ~default:"" (str resp "reason"))
  | Some "equivalent", `Eq -> Pass
  | Some "equivalent", `Neq _ -> Wrong "EQUIVALENT on a known mutant"
  | Some "inequivalent", `Eq -> Wrong "INEQUIVALENT on a resynthesized pair"
  | Some "inequivalent", `Neq (b, rtext) -> (
      match cex_of resp with
      | None -> Wrong "mutant rejected without a cex"
      | Some cex ->
          if Verify.confirm_cex ~exposed:b.exposed b.circuit (Netlist_io.parse rtext) cex
          then Pass
          else Wrong "counterexample does not replay")
  | Some v, _ -> Failed ("verdict " ^ v)

let response_layers ~lat ~parse_s resp =
  let ph = obj resp "phases" and co = obj resp "counters" in
  let f o k = Option.value ~default:0. (num o k) in
  let hits = f co "cache_hits" +. f co "store_hits" in
  [
    ("server.wire_s", lat -. f resp "seconds");
    ("circuit.parse_s", parse_s);
    ("cbf.unroll_s", f ph "unroll_seconds");
    ("cec.check_wall_s", f ph "cec_elapsed_seconds");
    ("cec.layout_s", f ph "partition_seconds");
    ("cec.sat_cpu_s", f ph "sat_cpu_seconds");
    ("cec.sweep_cpu_s", f ph "sweep_cpu_seconds");
    ("cec.bdd_cpu_s", f ph "bdd_cpu_seconds");
    ( "cec.cpu_s",
      f ph "sat_cpu_seconds" +. f ph "sweep_cpu_seconds" +. f ph "bdd_cpu_seconds" );
    ("cec.sat_calls", f co "sat_calls");
    ("cec.partitions", f co "partitions");
    ("cec.monolithic_share", if f co "partitions" <= 1. then 1. else 0.);
    ("store.hits", hits);
    ("store.misses", f co "partitions" -. hits);
    ("store.writes", f co "store_writes");
  ]

let setup ~seed ~jobs ~tmp =
  let sock = Filename.concat tmp "s.sock" and dir = Filename.concat tmp "store" in
  let cfg =
    {
      (Server.default_config ~socket_path:sock) with
      Server.executors = 1;
      pool_jobs = jobs;
      cache_dir = Some dir;
      trace_sample = 0;
      slow_ms = infinity;
    }
  in
  let server = Server.start cfg in
  let conn = Server.Client.connect ~retries:50 sock in
  let stopped = ref false in
  let stop () =
    if not !stopped then begin
      stopped := true;
      Server.Client.close conn;
      Server.stop server
    end
  in
  let bases =
    Array.map
      (fun name ->
        let circuit = Workloads.by_name name in
        let plan = Feedback.plan_structural circuit in
        let exposed = List.map (Circuit.signal_name circuit) plan.Feedback.exposed in
        { name; circuit; exposed })
      bases
  in
  let variant st ~mutant b =
    let r = Hier.resynthesize ~seed:(Random.State.bits st) b.circuit in
    if mutant then
      Hier.break_output ~output:(Random.State.int st (List.length (Circuit.outputs r))) r
    else r
  in
  let send q =
    Server.Client.request conn
      (match q.wire with Sjson.Obj kv -> Sjson.Obj (("id", Sjson.Int 0) :: kv) | j -> j)
  in
  (* the hot set a repeat draws from, answered once during warm-up *)
  let hot =
    Array.mapi
      (fun k b ->
        let st = Random.State.make [| seed; k; 0x407 |] in
        make_request ~inline_left:(k mod 2 = 1) ~mutant:false b
          (variant st ~mutant:false b))
      bases
  in
  Array.iter (fun q -> ignore (send q)) hot;
  let pick = round_robin ~seed (Array.length round) in
  let prepare ~traced i =
    let st = Random.State.make [| seed; i; 0x5E7 |] in
    let k = pick i in
    let q =
      match round.(k) with
      | Repeat b -> hot.(b)
      | Fresh b ->
          make_request ~inline_left:(i mod 3 = 0) ~mutant:false bases.(b)
            (variant st ~mutant:false bases.(b))
      | Mutant ->
          (* the mutated base goes round the bases, one a round *)
          let b = bases.(i / Array.length round mod Array.length bases) in
          make_request ~inline_left:false ~mutant:true b (variant st ~mutant:true b)
    in
    let parse_s =
      if traced then
        List.fold_left
          (fun a t -> a +. snd (time (fun () -> Netlist_io.parse t)))
          0. q.inline_texts
      else 0.
    in
    let expect = q.expect in
    ( k,
      fun () ->
        let resp, lat = time (fun () -> send q) in
        {
          check = (fun () -> judge expect resp);
          layers = (fun () -> response_layers ~lat ~parse_s resp);
        } )
  in
  let finish () =
    let stats =
      Server.Client.request conn
        (Sjson.Obj [ ("id", Sjson.Int 0); ("op", Sjson.String "stats") ])
    in
    let p50 k = Option.value ~default:0. (num (obj stats k) "p50_ms") /. 1000. in
    stop ();
    [
      ("server.queue_wait_p50_s", p50 "queue_wait");
      ("server.request_p50_s", p50 "latency");
    ]
    @ Wl_hier.reopen_layers dir
  in
  {
    busy_domains = cfg.Server.executors * cfg.Server.pool_jobs;
    prepare;
    finish;
    teardown = stop;
  }

let ratios ~mean =
  let h = mean "store.hits" and m = mean "store.misses" in
  ("store.hit_ratio", if h +. m > 0. then h /. (h +. m) else 0.)
  :: Wl_sec.cpu_over_wall ~mean

(* peak RSS after 12 rounds *)
let workload =
  {
    name = "serve";
    jobs = 1;
    rss_probe_ops = Some (12 * Array.length round);
    nominal_ops_per_s = 40.;
    wall_layers = [ "server.wire_s"; "cbf.unroll_s"; "cec.check_wall_s" ];
    replayed = false;
    ratios;
    setup;
  }
