(* The metadata cluster's benchmark: three workloads over all five commit
   protocols, the simulated service a client sees and the host cost of
   producing it. README.md in this directory explains how to run it and
   how to read its output.

   Usage:
     perfbench --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}; everything before it is
   for people. With --trace 0 the metrics are the end-to-end ones, with
   --trace 1 the per-layer ones. Any correctness, oracle or passivity
   failure makes the object read "correct": false and the exit code 1. *)

module C = Opc_cluster.Cluster
module T = Simkit.Time
module Ol = Workload.Open_loop

let kinds = Acp.Protocol.all

(* ------------------------------------------------------------------ *)
(* Host clocks and small statistics                                    *)
(* ------------------------------------------------------------------ *)

let wall_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_of_span s = T.span_to_float_s s *. 1e3
let ms_of_ns ns = float_of_int ns /. 1e6

(* Linear interpolation between closest ranks. *)
let quantile q = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let geomean xs =
  exp
    (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
    /. float_of_int (List.length xs))

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Benchmark spans: host-time intervals around the calls into the      *)
(* cluster, recorded only in the traced run and written as a Chrome    *)
(* trace at exit.                                                      *)
(* ------------------------------------------------------------------ *)

type bspan = { s_name : string; s_proto : string; s_start : int; s_stop : int }

let spans : bspan list ref = ref []
let spans_on = ref false

let with_span ~proto name f =
  if not !spans_on then f ()
  else begin
    let start = wall_ns () in
    let r = f () in
    spans :=
      { s_name = name; s_proto = proto; s_start = start; s_stop = wall_ns () }
      :: !spans;
    r
  end

(* Layers of the host-time table, in print order; [Obs.Prof] books the
   dispatch loop's own overhead under engine. *)
let subsystems =
  List.map Simkit.Label.subsystem_name
    Simkit.Label.[ Engine; Net; Storage; Locks; Acp; Chaos; Cluster; Other ]

(* ------------------------------------------------------------------ *)
(* GC phases and counters from the runtime_events ring.                *)
(* ------------------------------------------------------------------ *)

type gc_tally = {
  mutable minors : int;
  mutable major_slices : int;
  mutable make_vect : int;
  mutable pause_ns : int;
  mutable lost : int;
  mutable counting : bool;
  open_at : (Runtime_events.runtime_phase, int) Hashtbl.t;
}

let gc =
  {
    minors = 0;
    major_slices = 0;
    make_vect = 0;
    pause_ns = 0;
    lost = 0;
    counting = false;
    open_at = Hashtbl.create 4;
  }

let gc_cursor = ref None

let gc_callbacks =
  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t) in
  let top = function
    | Runtime_events.EV_MINOR | EV_MAJOR_SLICE -> true
    | _ -> false
  in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ t phase ->
      if top phase then Hashtbl.replace gc.open_at phase (ts t))
    ~runtime_end:(fun _ t phase ->
      if top phase then
        match Hashtbl.find_opt gc.open_at phase with
        | None -> ()
        | Some t0 ->
            Hashtbl.remove gc.open_at phase;
            if gc.counting then begin
              gc.pause_ns <- gc.pause_ns + (ts t - t0);
              if phase = EV_MINOR then gc.minors <- gc.minors + 1
              else gc.major_slices <- gc.major_slices + 1
            end)
    ~runtime_counter:(fun _ _ counter v ->
      if gc.counting && counter = Runtime_events.EV_C_FORCE_MINOR_MAKE_VECT
      then gc.make_vect <- gc.make_vect + v)
    ~lost_events:(fun _ n -> gc.lost <- gc.lost + n)
    ()

let gc_poll () =
  match !gc_cursor with
  | None -> ()
  | Some c -> ignore (Runtime_events.read_poll c gc_callbacks None)

let gc_start () =
  Runtime_events.start ();
  gc_cursor := Some (Runtime_events.create_cursor None)

(* Book GC activity to the enclosed interval only. *)
let gc_counted f =
  gc_poll ();
  gc.counting <- true;
  let r = f () in
  gc_poll ();
  gc.counting <- false;
  r

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = Steady_mix | Hot_dir | Faults_open

let workloads =
  [ ("steady-mix", Steady_mix); ("hot-dir", Hot_dir); ("faults-open", Faults_open) ]

(* steady-mix: the scale campaign's sharded-store regime at a run length
   well past the 10k-transaction smoke point. *)
let steady_servers = 16
let steady_clients = 2 * steady_servers
let steady_ops_per_client = 625

let steady_mix =
  { Workload.create_weight = 70; delete_weight = 25; rename_weight = 0;
    lookup_weight = 5 }

(* hot-dir: Figure 6's shared spindle, every client in one directory. *)
let hot_clients = 24
let hot_ops_per_client = 80

let hot_mix =
  { Workload.create_weight = 40; delete_weight = 20; rename_weight = 10;
    lookup_weight = 30 }

(* faults-open: Poisson creates through the admission-controlled ingress,
   below every logged protocol's knee, with seeded crashes. Private
   4 MB/s devices lift the knee far enough that each server gets an
   arrival every 20 ms, which keeps the outage measurement sharp; on the
   shared 400 KB/s spindle the rate has to stay near 10 req/s and the
   outage percentile moves by 20 % from seed to seed. The 150 ms restart
   outlasts the 100 ms detector, so peers fence the crashed server. *)
let open_servers = 4
let open_rate = 200.0
let open_disk_bandwidth = 4_000_000
let open_window_s = 90
let open_crashes = 120
let open_loss = 0.02

let open_config =
  {
    Opc.Experiment.fig6_config with
    Opc_cluster.Config.servers = open_servers;
    txn_timeout = T.span_ms 300;
    heartbeat_interval = T.span_ms 20;
    detector_timeout = T.span_ms 100;
    restart_delay = T.span_ms 150;
    auto_restart = true;
    san =
      (let san = Opc.Experiment.fig6_config.Opc_cluster.Config.san in
       {
         san with
         Storage.San.shared_device = false;
         disk = { san.disk with Storage.Disk.bandwidth_bytes_per_s = open_disk_bandwidth };
       });
  }

(* Closed loops end with a recovery probe: this many crashes of a
   directory-owning server, each followed by a create every millisecond
   into that server's directory until one commits. *)
let probe_crashes = 20
let probe_poll = T.span_ms 1
let probe_label = Simkit.Label.v Other "perfbench.probe"

let config_of workload ~seed kind =
  let base =
    match workload with
    | Steady_mix -> Opc.Experiment.scale_config ~servers:steady_servers ~seed
    | Hot_dir -> Opc.Experiment.fig6_config
    | Faults_open -> open_config
  in
  { base with Opc_cluster.Config.protocol = kind; seed }

(* Independent streams per purpose, so adding draws to one never shifts
   another. *)
let rng_for ~seed purpose = Simkit.Rng.create ~seed:((seed * 7919) + purpose)

type generator =
  | Closed of Workload.t
  | Open of { ingress : Opc_cluster.Ingress.t; ol : Ol.t; crashes : (int * T.t) list }

type setup = {
  cluster : C.t;
  dirs : Mds.Update.ino array;
  owner : int array;  (* directory index -> owning server *)
  start : T.t;  (* simulated time of the first submission *)
  generator : generator;
}

let faults_schedule ~seed ~start =
  let rng = rng_for ~seed 3 in
  let gap = open_window_s * 1000 * 9 / 10 / open_crashes in
  let crashes =
    List.init open_crashes (fun i ->
        let at_ms = (i * gap) + (gap / 4) + Simkit.Rng.int rng (gap / 2) in
        (Simkit.Rng.int rng open_servers, T.add start (T.span_ms at_ms)))
  in
  let loss_at = T.add start (T.span_ms (Simkit.Rng.int rng (open_window_s * 800))) in
  (crashes, loss_at)

let build workload ~seed ~config =
  let proto = Acp.Protocol.name config.Opc_cluster.Config.protocol in
  let cluster, dirs, owner, ingress =
    with_span ~proto "setup" (fun () ->
        let cluster = C.create config in
        let root = C.root cluster in
        let owner =
          match workload with
          | Steady_mix -> Array.init steady_servers Fun.id
          | Hot_dir -> [| 0 |]
          | Faults_open -> Array.init open_servers Fun.id
        in
        let dirs =
          Array.mapi
            (fun i server ->
              C.add_directory cluster ~parent:root ~name:(Printf.sprintf "d%d" i)
                ~server ())
            owner
        in
        let ingress =
          match workload with
          | Faults_open -> Some (Opc_cluster.Ingress.create cluster)
          | Steady_mix | Hot_dir -> None
        in
        (cluster, dirs, owner, ingress))
  in
  let start = C.now cluster in
  let generator =
    with_span ~proto "generator" (fun () ->
        let closed ~clients ~ops_per_client ~mix =
          Closed
            (Workload.closed_loop cluster ~dirs ~clients ~ops_per_client ~mix
               ~zipf_s:0.0 ~rng:(rng_for ~seed 1) ())
        in
        match workload with
        | Steady_mix ->
            closed ~clients:steady_clients ~ops_per_client:steady_ops_per_client
              ~mix:steady_mix
        | Hot_dir ->
            closed ~clients:hot_clients ~ops_per_client:hot_ops_per_client
              ~mix:hot_mix
        | Faults_open ->
            let ingress = Option.get ingress in
            let spec =
              {
                Ol.arrival = Ol.Poisson;
                rate_per_s = open_rate;
                duration = T.span_s open_window_s;
                dirs;
                zipf_s = 0.0;
                policy = Chaos.Overload.policy;
              }
            in
            let ol = Ol.run cluster ingress spec ~rng:(rng_for ~seed 2) in
            let crashes, loss_at = faults_schedule ~seed ~start in
            List.iter
              (fun (server, at) -> Opc_cluster.Fault.crash_at cluster ~server ~at)
              crashes;
            Opc_cluster.Fault.loss_burst_at cluster ~probability:open_loss
              ~at:loss_at ~until:(T.add loss_at (T.span_ms 500));
            Open { ingress; ol; crashes })
  in
  { cluster; dirs; owner; start; generator }

(* ------------------------------------------------------------------ *)
(* One protocol, one workload                                          *)
(* ------------------------------------------------------------------ *)

type mode = {
  checked : bool;  (* message meter on; chaos oracles judge the run *)
  traced : bool;  (* span recording and the Obs.Prof dispatch observer on *)
  probe : bool;  (* closed loops: run the recovery probe afterwards *)
  count_gc : bool;  (* book runtime_events GC activity of the main phase *)
  live : bool;  (* measure live words with the cluster still reachable *)
  slices : (Acp.Protocol.kind -> T.span) option;
      (* cut the main phase into [n_slices] equal [Cluster.run_for]
         slices covering the protocol's span, then settle *)
}

let plain =
  { checked = false; traced = false; probe = false; count_gc = false;
    live = false; slices = None }

let n_slices = 20

type counts = {
  events : int;
  pending_max : int;
  sent : int;
  dropped : int;
  forces : int;
  asyncs : int;
  disk_bytes : int;
  busiest_disk : T.span;
  fences : int;
  grants : int;
  waited : int;
  wait_total : T.span;
  max_queue : int;
  timeouts : int;
  ing_submitted : int;
  shed : int;
  replayed : int;
  coalesced : int;
  offered : int;
  attempts : int;
  gave_up : int;
}

type result = {
  kind : Acp.Protocol.kind;
  cpu_s : float;  (* host CPU of the main phase, first submission to settle *)
  minor_words : int;  (* allocated by the main phase *)
  attempted : int;  (* client operations, reads included *)
  submitted : int;  (* mutating operations *)
  committed : int;
  main_end : T.span;  (* first submission to the last client reply *)
  ops_per_s : float;
  lat_p50_ms : float;
  lat_p99_ms : float;
  lat_n : int;
  outages_ms : float list;
  counts : counts;
  elapsed : T.span;  (* first submission to the end of the main phase *)
  slice_cost : (int * int) array;  (* per slice: host ns, dispatches *)
  paths : Obs.Breakdown.path list;
  prof : (string * int * int) list;  (* Obs.Prof.by_subsystem of the main phase *)
  live_words : int;
  inputs : int;  (* fingerprint of the generated operations *)
  violations : string list;
}

let counts_of st =
  let c = st.cluster in
  let engine = C.engine c in
  let net = Netsim.Network.stats (C.network c) in
  let nodes = Array.to_list (C.nodes c) in
  let wal = List.map (fun n -> Storage.Wal.stats (Opc_cluster.Node.wal n)) nodes in
  let lk = List.map (fun n -> Locks.Lock_manager.stats (Opc_cluster.Node.locks n)) nodes in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let disks = List.map Storage.Disk.stats (Storage.San.devices (C.san c)) in
  let busiest =
    List.fold_left (fun acc d -> T.max_span acc d.Storage.Disk.busy_time) T.zero_span disks
  in
  let ing, ol =
    match st.generator with
    | Closed _ -> (None, None)
    | Open { ingress; ol; _ } ->
        (Some (Opc_cluster.Ingress.stats ingress), Some (Ol.stats ol))
  in
  let ig f = match ing with Some s -> f s | None -> 0 in
  let og f = match ol with Some s -> f s | None -> 0 in
  {
    events = Simkit.Engine.dispatched engine;
    pending_max = Simkit.Engine.pending_high_water engine;
    sent = net.Netsim.Network.sent;
    dropped = net.dropped_loss + net.dropped_down + net.dropped_partition;
    forces = sum (fun s -> s.Storage.Wal.sync_writes) wal;
    asyncs = sum (fun s -> s.Storage.Wal.async_writes) wal;
    disk_bytes = sum (fun d -> d.Storage.Disk.bytes_transferred) disks;
    busiest_disk = busiest;
    fences = Metrics.Ledger.get (C.ledger c) "acp.fence";
    grants = sum (fun s -> s.Locks.Lock_manager.acquired) lk;
    waited = sum (fun s -> s.Locks.Lock_manager.waited) lk;
    wait_total =
      List.fold_left
        (fun acc s -> T.add_span acc s.Locks.Lock_manager.total_wait)
        T.zero_span lk;
    max_queue = List.fold_left (fun acc s -> max acc s.Locks.Lock_manager.max_queue) 0 lk;
    timeouts = sum (fun s -> s.Locks.Lock_manager.timeouts) lk;
    ing_submitted = ig (fun s -> s.Opc_cluster.Ingress.submitted);
    shed = ig (fun s -> s.Opc_cluster.Ingress.shed);
    replayed = ig (fun s -> s.Opc_cluster.Ingress.replayed);
    coalesced = ig (fun s -> s.Opc_cluster.Ingress.coalesced);
    offered = og (fun s -> s.Ol.offered);
    attempts = og (fun s -> s.Ol.attempts);
    gave_up = og (fun s -> s.Ol.gave_up);
  }

let settle_name = function
  | C.Quiescent -> "quiescent"
  | Deadline_exceeded -> "deadline exceeded"
  | Stuck -> "stuck"

let settle_deadline = T.span_s 86_400

(* Time of the last client reply of the main phase. *)
let last_reply st =
  match st.generator with
  | Closed wl -> (Workload.stats wl).Workload.last_reply
  | Open { ol; _ } ->
      List.fold_left
        (fun acc r -> if T.(r.Ol.resolved_at > acc) then r.Ol.resolved_at else acc)
        st.start (Ol.requests ol)

let run_main st mode ~proto ~slice_cost =
  (match mode.slices with
  | None -> ()
  | Some cover ->
      let kind = (C.config st.cluster).Opc_cluster.Config.protocol in
      let cover = cover kind and n = n_slices in
      let engine = C.engine st.cluster in
      let total = T.span_to_ns cover in
      for k = 1 to n do
        let target = T.add st.start (T.span_ns (total * k / n)) in
        let now = C.now st.cluster in
        if T.(target > now) then begin
          let t0 = wall_ns () and e0 = Simkit.Engine.dispatched engine in
          with_span ~proto (Printf.sprintf "slice %d" k) (fun () ->
              C.run_for st.cluster (T.diff target now);
              if mode.count_gc then gc_poll ());
          slice_cost.(k - 1) <-
            (wall_ns () - t0, Simkit.Engine.dispatched engine - e0)
        end
      done);
  with_span ~proto "settle" (fun () ->
      match st.generator with
      | Closed _ -> C.settle ~deadline:settle_deadline st.cluster
      | Open { ol; _ } -> Ol.settle ~deadline:settle_deadline ol)

(* Crash -> first commit of a later request coordinated by the crashed
   server, from the open loop's own records. *)
let open_outages st =
  match st.generator with
  | Closed _ -> ([], [])
  | Open { ol; crashes; _ } ->
      let reqs = Ol.requests ol in
      let coordinator r =
        match r.Ol.req_op with
        | Mds.Op.Create { parent; _ } | Delete { parent; _ } ->
            let rec find i = if st.dirs.(i) = parent then st.owner.(i) else find (i + 1) in
            find 0
        | Rename _ -> -1
      in
      List.fold_left
        (fun (outs, errs) (server, at) ->
          let first =
            List.fold_left
              (fun acc r ->
                if
                  r.Ol.resolution = Some Ol.R_committed
                  && T.(r.Ol.arrived_at > at)
                  && coordinator r = server
                then
                  match acc with
                  | Some t when T.(t <= r.Ol.resolved_at) -> acc
                  | _ -> Some r.Ol.resolved_at
                else acc)
              None reqs
          in
          match first with
          | Some t -> (ms_of_span (T.diff t at) :: outs, errs)
          | None ->
              ( outs,
                Printf.sprintf "no commit through server %d after its crash at %s"
                  server (Fmt.to_to_string T.pp at)
                :: errs ))
        ([], []) crashes

(* The closed loops' recovery probe. *)
let probe st ~seed =
  let c = st.cluster in
  let rng = rng_for ~seed 4 in
  let engine = C.engine c in
  let rec go k outs errs =
    if k = probe_crashes then (List.rev outs, errs)
    else begin
      let d = Simkit.Rng.int rng (Array.length st.dirs) in
      let server = st.owner.(d) in
      (* A seeded pause first, so the crash lands at a different phase of
         the heartbeat and detector timers each time. *)
      C.run_for c (T.span_us (1 + Simkit.Rng.int rng 50_000));
      let crashed_at = C.now c in
      C.crash c server;
      let first = ref None in
      let rec poll i () =
        C.submit c
          (Mds.Op.create_file ~parent:st.dirs.(d) ~name:(Printf.sprintf "probe%d_%d" k i))
          ~on_done:(function
            | Acp.Txn.Committed ->
                if !first = None then first := Some (C.now c)
            | Acp.Txn.Aborted _ ->
                if !first = None then
                  ignore
                    (Simkit.Engine.schedule engine ~label:probe_label
                       ~after:probe_poll (poll (i + 1))))
      in
      (* The client's polls are not aligned with the crash. *)
      let phase = T.span_ns (1 + Simkit.Rng.int rng (T.span_to_ns probe_poll)) in
      ignore (Simkit.Engine.schedule engine ~label:probe_label ~after:phase (poll 0));
      let limit = T.add crashed_at (T.span_s 600) in
      while !first = None && T.(C.now c < limit) do
        C.run_for c (T.span_ms 10)
      done;
      let settled = C.settle ~deadline:settle_deadline c in
      let errs =
        (if settled <> C.Quiescent then
           [ Printf.sprintf "probe %d: settle %s" k (settle_name settled) ]
         else [])
        @ List.map
            (Fmt.str "probe %d: invariant %a" k Mds.Invariant.pp_violation)
            (C.check_invariants c)
        @ errs
      in
      match !first with
      | Some t -> go (k + 1) (ms_of_span (T.diff t crashed_at) :: outs) errs
      | None -> (List.rev outs, Printf.sprintf "probe %d: no commit in 600 s" k :: errs)
    end
  in
  go 0 [] []

let inputs_fingerprint st =
  let fold = List.fold_left (fun h x -> Hashtbl.hash (h, x)) 0 in
  match st.generator with
  | Closed wl ->
      fold (List.map (fun r -> Fmt.to_to_string Mds.Op.pp r.Workload.op) (Workload.records wl))
  | Open { ol; _ } ->
      fold
        (List.map
           (fun r ->
             Fmt.str "%a@%d" Mds.Op.pp r.Ol.req_op (T.to_ns r.Ol.arrived_at))
           (Ol.requests ol))

(* [Obs.Breakdown.paths] compares every window with every span, which is
   quadratic in the run length. The benchmark walks an evenly spaced
   sample of the windows instead, each against a tracer holding only the
   spans that can gate it: its own transaction's and unattributed ones
   that overlap it. *)
let breakdown_sample = 400

let sampled_paths tracer =
  let windows = ref [] and loose = ref [] and by_txn = Hashtbl.create 4096 in
  Obs.Tracer.iter
    (fun (s : Obs.Span.t) ->
      if s.closed then
        if s.category = Obs.Span.Phase && s.name = Obs.Breakdown.window_name then
          windows := s :: !windows
        else if s.txn = -1 then loose := s :: !loose
        else Hashtbl.add by_txn s.txn s)
    tracer;
  let windows = Array.of_list (List.rev !windows) in
  let loose = Array.of_list !loose in
  Array.sort (fun (a : Obs.Span.t) b -> T.compare a.start b.start) loose;
  let longest =
    Array.fold_left (fun acc (s : Obs.Span.t) -> max acc (T.to_ns s.stop - T.to_ns s.start)) 0 loose
  in
  let first_start_after ns =
    let lo = ref 0 and hi = ref (Array.length loose) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if T.to_ns loose.(mid).start < ns then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let step = max 1 (Array.length windows / breakdown_sample) in
  let copy t (s : Obs.Span.t) =
    Obs.Tracer.span t ~start:s.start ~stop:s.stop ~txn:s.txn ~baseline:s.baseline
      ~category:s.category ~track:s.track ~name:s.name
  in
  List.concat
    (List.filteri (fun i _ -> i mod step = 0) (Array.to_list windows)
    |> List.map (fun (w : Obs.Span.t) ->
           let t = Obs.Tracer.create () in
           copy t w;
           List.iter (copy t) (Hashtbl.find_all by_txn w.txn);
           let i = ref (first_start_after (T.to_ns w.start - longest)) in
           while !i < Array.length loose && T.(loose.(!i).start < w.stop) do
             copy t loose.(!i);
             incr i
           done;
           Obs.Breakdown.paths t))

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let run_one workload ~seed ~mode kind =
  let proto = Acp.Protocol.name kind in
  let base_live = if mode.live then live_words () else 0 in
  let config =
    {
      (config_of workload ~seed kind) with
      Opc_cluster.Config.record_coverage = mode.checked;
      record_spans = mode.traced;
    }
  in
  let st = build workload ~seed ~config in
  let prof = if mode.traced then Obs.Prof.create () else Obs.Prof.disabled () in
  Obs.Prof.attach prof (C.engine st.cluster);
  let slice_cost = Array.make n_slices (0, 0) in
  let w0 = Gc.minor_words () in
  let c0 = Sys.time () in
  let settled =
    let main () = with_span ~proto "main" (fun () -> run_main st mode ~proto ~slice_cost) in
    if mode.count_gc then gc_counted main else main ()
  in
  let cpu_s = Sys.time () -. c0 in
  let minor_words = int_of_float (Gc.minor_words () -. w0) in
  let prof =
    if mode.traced then Obs.Prof.by_subsystem (Obs.Prof.report prof) else []
  in
  let elapsed = T.diff (C.now st.cluster) st.start in
  let main_end = T.diff (last_reply st) st.start in
  let counts = counts_of st in
  let submitted, committed, attempted, ops_per_s, lat =
    match st.generator with
    | Closed wl ->
        let s = Workload.stats wl in
        ( s.Workload.submitted,
          s.committed,
          s.submitted + s.reads,
          Workload.throughput_per_s s,
          C.latency_committed st.cluster )
    | Open { ol; _ } ->
        let s = Ol.stats ol in
        (s.Ol.offered, s.committed, s.offered, s.goodput_per_s, Ol.latency ol)
  in
  let lat_p50_ms, lat_p99_ms =
    match Metrics.Histogram.quantiles lat [ 0.5; 0.99 ] with
    | [ a; b ] -> (ms_of_span a, ms_of_span b)
    | _ -> (nan, nan)
  in
  let lat_n = Metrics.Histogram.count lat in
  let violations = ref [] in
  let fail fmt = Fmt.kstr (fun s -> violations := s :: !violations) fmt in
  if settled <> C.Quiescent then fail "settle: %s" (settle_name settled);
  List.iter
    (fail "invariant: %a" Mds.Invariant.pp_violation)
    (C.check_invariants st.cluster);
  if mode.checked then begin
    List.iter
      (fun (tag, off) -> fail "message ledger: tag %d off by %d" tag off)
      (Netsim.Network.Meter.check (C.meter st.cluster));
    let oracle =
      match st.generator with
      | Closed wl ->
          Chaos.Oracle.check st.cluster ~workload:wl ~dirs:st.dirs ~settled
      | Open { ingress; ol; _ } ->
          Chaos.Oracle.check_open_loop st.cluster ~ingress ~open_loop:ol
            ~dirs:st.dirs ~settled
    in
    List.iter (fail "oracle: %a" Chaos.Oracle.pp_violation) oracle
  end;
  let paths = if mode.traced then sampled_paths (C.obs st.cluster) else [] in
  let live_words = if mode.live then live_words () - base_live else 0 in
  let inputs = if mode.checked then inputs_fingerprint st else 0 in
  let outages_ms, errs =
    match st.generator with
    | Open _ -> open_outages st
    | Closed _ ->
        if mode.probe then with_span ~proto "probe" (fun () -> probe st ~seed)
        else ([], [])
  in
  List.iter (fail "%s") errs;
  {
    kind;
    cpu_s;
    minor_words;
    attempted;
    submitted;
    committed;
    main_end;
    ops_per_s;
    lat_p50_ms;
    lat_p99_ms;
    lat_n;
    outages_ms;
    counts;
    elapsed;
    slice_cost;
    paths;
    prof;
    live_words;
    inputs;
    violations = List.rev_map (Printf.sprintf "%s: %s" proto) !violations;
  }

let round workload ~seed ~mode = List.map (run_one workload ~seed ~mode) kinds

(* What must repeat exactly: the main phase, and with the probe the
   outages too. *)
let digest ~with_probe r =
  Printf.sprintf "%s submitted=%d committed=%d attempted=%d events=%d end=%d p50=%h p99=%h n=%d%s"
    (Acp.Protocol.name r.kind) r.submitted r.committed r.attempted r.counts.events
    (T.span_to_ns r.main_end) r.lat_p50_ms r.lat_p99_ms r.lat_n
    (if with_probe then
       String.concat "" (List.map (Printf.sprintf " %h") r.outages_ms)
     else "")

let same_digests ~what ~with_probe a b =
  List.concat
    (List.map2
       (fun x y ->
         let dx = digest ~with_probe x and dy = digest ~with_probe y in
         if dx = dy then []
         else [ Printf.sprintf "%s: %s differs: %s vs %s" what (Acp.Protocol.name x.kind) dx dy ])
       a b)

let sum f rs = List.fold_left (fun acc r -> acc + f r) 0 rs
let sumf f rs = List.fold_left (fun acc r -> acc +. f r) 0.0 rs

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v = Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_number x.value) x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let print_protocols rs =
  Printf.printf "%-5s %9s %9s %11s %11s %7s %10s %11s %9s\n" "proto" "submitted"
    "committed" "sim ops/s" "p50 ms" "p99 ms" "n" "outage p90" "cpu s";
  List.iter
    (fun r ->
      Printf.printf "%-5s %9d %9d %11.3f %11.3f %7.1f %10d %11.1f %9.3f\n"
        (Acp.Protocol.name r.kind) r.submitted r.committed r.ops_per_s
        r.lat_p50_ms r.lat_p99_ms r.lat_n
        (quantile 0.9 r.outages_ms) r.cpu_s)
    rs

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-34s %18.6f %s\n" x.name x.value x.unit_) ms

let out_dir = Filename.concat "perfbench" "out"

let write_file name text =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat out_dir name in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  path

(* Chrome trace-event JSON (loads in chrome://tracing, Perfetto and
   speedscope): one complete event per benchmark span, one thread per
   protocol. *)
let chrome_trace layers_by_proto =
  let spans = List.rev !spans in
  let t0 = List.fold_left (fun acc s -> min acc s.s_start) max_int spans in
  let tid p = match List.find_index (fun k -> Acp.Protocol.name k = p) kinds with
    | Some i -> i + 1 | None -> 0 in
  let ev s =
    let args =
      match (s.s_name, List.assoc_opt s.s_proto layers_by_proto) with
      | "main", Some prof ->
          ", \"args\": {"
          ^ String.concat ", "
              (List.map
                 (fun (sub, ns, _) -> Printf.sprintf "\"%s_ms\": %.3f" sub (ms_of_ns ns))
                 prof)
          ^ "}"
      | _ -> ""
    in
    Printf.sprintf
      "{\"name\": %S, \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f%s}"
      s.s_name (tid s.s_proto)
      (float_of_int (s.s_start - t0) /. 1e3)
      (float_of_int (s.s_stop - s.s_start) /. 1e3)
      args
  in
  let names =
    List.mapi
      (fun i k ->
        Printf.sprintf
          "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"args\": {\"name\": %S}}"
          (i + 1) (Acp.Protocol.name k))
      kinds
  in
  "{\"traceEvents\": [\n" ^ String.concat ",\n" (names @ List.map ev spans) ^ "\n]}\n"

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics                                       *)
(* ------------------------------------------------------------------ *)

(* Every run times at least this many plain rounds. *)
let min_timed_rounds = 3

(* After every timed round the run sets all five protocols up this many
   more times; setup_s is the fastest of all of them, taken across the
   whole run and not at one moment of it. *)
let setups_per_round = 25

(* Machine-speed calibration. The host this runs on is shared: a round's
   CPU time swings by 40 % within a minute, and whole minutes run slow.
   A fixed kernel of allocation, hashing and sorting, which no change to
   the program touches, is timed every half second of the run; its
   median says how fast the machine ran. Host times are scaled to the
   speed at which the kernel takes [calibration_ref_s]. *)
let calibration_ref_s = 0.015
let calibration_every_ns = 500_000_000

let calibration_kernel () =
  let c0 = Sys.time () in
  let h = Hashtbl.create 16 in
  for i = 0 to 12_000 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 100_003)) (ref i)
  done;
  let l = List.init 40_000 (fun i -> i * 48271 mod 2_147_483_647) in
  let a = Array.of_list (List.map (fun x -> x lxor 0x5555) l) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (h, a));
  Sys.time () -. c0

let mib_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.0

let sim_metrics rs =
  let outages = List.concat_map (fun r -> r.outages_ms) rs in
  [
    m "sim_ops_per_s" "ops/s" (geomean (List.map (fun r -> r.ops_per_s) rs));
    m "sim_latency_p50_ms" "ms" (geomean (List.map (fun r -> r.lat_p50_ms) rs));
    m "sim_latency_p99_ms" "ms" (geomean (List.map (fun r -> r.lat_p99_ms) rs));
    m "committed_share" "share" (ratio (sum (fun r -> r.committed) rs) (sum (fun r -> r.submitted) rs));
    m "outage_p90_ms" "ms" (quantile 0.9 outages);
  ]

let end_to_end workload ~seed ~seconds =
  let t_start = wall_ns () in
  let setups = ref [] and calibrations = ref [] and last_calibration = ref 0 in
  let timed_round () =
    let rs =
      List.map
        (fun kind ->
          let r = run_one workload ~seed ~mode:plain kind in
          if wall_ns () - !last_calibration >= calibration_every_ns then begin
            calibrations := calibration_kernel () :: !calibrations;
            last_calibration := wall_ns ()
          end;
          r)
        kinds
    in
    for _ = 1 to setups_per_round do
      let s =
        sumf
          (fun kind ->
            let config = config_of workload ~seed kind in
            let t0 = wall_ns () in
            ignore (Sys.opaque_identity (build workload ~seed ~config));
            float_of_int (wall_ns () - t0) /. 1e9)
          kinds
      in
      setups := s :: !setups
    done;
    rs
  in
  (* The process starts with the fixed number of plain rounds and reads
     the top of its heap then: the checks have not run, and the figure
     does not depend on how many rounds the host speed allows. *)
  let first = List.init min_timed_rounds (fun _ -> timed_round ()) in
  let peak_heap_mb = mib_of_words (Gc.quick_stat ()).Gc.top_heap_words in
  let round_ns = (wall_ns () - t_start) / min_timed_rounds in
  (* Leave room for the checked round, which costs about two plain ones. *)
  let rec more acc =
    if wall_ns () - t_start + (2 * round_ns) >= seconds * 1_000_000_000 then List.rev acc
    else more (timed_round () :: acc)
  in
  let timed = first @ more [] in
  let checked = round workload ~seed ~mode:{ plain with checked = true; probe = true } in
  let violations =
    List.concat_map (fun r -> r.violations) (checked @ List.concat timed)
    @ List.concat_map (same_digests ~what:"timed round vs checked round" ~with_probe:false checked) timed
  in
  let per_round_rate rs = float_of_int (sum (fun r -> r.committed) rs) /. sumf (fun r -> r.cpu_s) rs in
  let speed = median !calibrations /. calibration_ref_s in
  let metrics =
    [
      m "setup_s" "s" (median !setups /. speed);
      m "txns_per_cpu_s" "txn/s" (median (List.map per_round_rate timed) *. speed);
      m "peak_heap_mb" "MB" peak_heap_mb;
    ]
    @ sim_metrics checked
  in
  print_protocols checked;
  Printf.printf "inputs %08x  timed rounds %d  percentile samples: latency %d, outage %d\n"
    (List.hd checked).inputs (List.length timed)
    (sum (fun r -> r.lat_n) checked)
    (List.length (List.concat_map (fun r -> r.outages_ms) checked));
  Printf.printf "txns_per_cpu_s by round, unscaled: %s\n"
    (String.concat " " (List.map (fun rs -> Printf.sprintf "%.0f" (per_round_rate rs)) timed));
  Printf.printf "calibration kernel: median %.2f ms over %d samples, reference %.0f ms\n"
    (1e3 *. median !calibrations) (List.length !calibrations) (1e3 *. calibration_ref_s);
  print_metrics "end-to-end" metrics;
  let attempted = sum (fun r -> r.attempted) (checked @ List.concat timed) in
  (violations, attempted, metrics)

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer metrics                                        *)
(* ------------------------------------------------------------------ *)

let per_layer workload ~seed =
  (* R0: the checked reference, one unsliced settle. *)
  let r0 = round workload ~seed ~mode:{ plain with checked = true; probe = true } in
  let cover kind =
    let r = List.find (fun r -> r.kind = kind) r0 in
    T.span_ns (max 1 (T.span_to_ns r.main_end - 1))
  in
  (* R1: untraced, cut into run_for slices; GC phases and live words. *)
  gc_start ();
  let r1 =
    round workload ~seed
      ~mode:{ plain with probe = true; count_gc = true; live = true; slices = Some cover }
  in
  (* R2: traced — spans, the Obs.Prof observer, benchmark spans. *)
  spans_on := true;
  let r2 = round workload ~seed ~mode:{ plain with traced = true; probe = true; slices = Some cover } in
  spans_on := false;
  let violations =
    List.concat_map (fun r -> r.violations) (r0 @ r1 @ r2)
    @ same_digests ~what:"sliced run vs one settle" ~with_probe:true r0 r1
    @ same_digests ~what:"traced run vs untraced run" ~with_probe:true r1 r2
  in
  let committed = sum (fun r -> r.committed) r0 in
  let per_txn x = float_of_int x /. float_of_int committed in
  let per_ktxn x = 1000.0 *. per_txn x in
  let cnt f = sum (fun r -> f r.counts) r0 in
  let layer sub =
    List.fold_left
      (fun (ns, words) r ->
        match List.find_opt (fun (name, _, _) -> name = sub) r.prof with
        | Some (_, n, w) -> (ns + n, words + w)
        | None -> (ns, words))
      (0, 0) r2
  in
  let layer_ns sub = fst (layer sub) and layer_words sub = snd (layer sub) in
  let slice k = (sum (fun r -> fst r.slice_cost.(k)) r2, sum (fun r -> snd r.slice_cost.(k)) r2) in
  let ns_per_ev (ns, ev) = ratio ns ev in
  let crit = Obs.Breakdown.summarize (List.concat_map (fun r -> r.paths) r2) in
  let cpu rs = sumf (fun r -> r.cpu_s) rs in
  let busy =
    sumf (fun r -> T.span_to_float_s r.counts.busiest_disk) r0
    /. sumf (fun r -> T.span_to_float_s r.elapsed) r0
  in
  let by_proto =
    List.concat_map
      (fun (a, b) ->
        let p = "acp." ^ Acp.Protocol.name a.kind in
        [
          m (p ^ ".sim_ops_per_s") "ops/s" a.ops_per_s;
          m (p ^ ".sim_latency_p99_ms") "ms" a.lat_p99_ms;
          m (p ^ ".txns_per_cpu_s") "txn/s" (float_of_int b.committed /. b.cpu_s);
        ])
      (List.combine r0 r1)
  in
  let metrics =
    [
      m "engine.events_per_txn" "event/txn" (per_txn (cnt (fun c -> c.events)));
      m "engine.ns_per_event" "ns" (1e9 *. cpu r1 /. float_of_int (cnt (fun c -> c.events)));
      m "engine.pending_max" "count"
        (float_of_int (List.fold_left (fun acc r -> max acc r.counts.pending_max) 0 r0));
      m "engine.late_over_early" "ratio"
        (ns_per_ev (slice (n_slices - 1)) /. ns_per_ev (slice 1));
      m "net.msgs_per_txn" "msg/txn" (per_txn (cnt (fun c -> c.sent)));
      m "net.dropped_share" "share" (ratio (cnt (fun c -> c.dropped)) (cnt (fun c -> c.sent)));
      m "net.cpu_ns_per_txn" "ns/txn" (per_txn (layer_ns "net"));
      m "net.words_per_txn" "word/txn" (per_txn (layer_words "net"));
      m "wal.forces_per_txn" "force/txn" (per_txn (cnt (fun c -> c.forces)));
      m "wal.async_per_txn" "write/txn" (per_txn (cnt (fun c -> c.asyncs)));
      m "wal.bytes_per_txn" "B/txn" (per_txn (cnt (fun c -> c.disk_bytes)));
      m "disk.busy_share" "share" busy;
      m "san.fences" "count" (float_of_int (cnt (fun c -> c.fences)));
      m "storage.cpu_ns_per_txn" "ns/txn" (per_txn (layer_ns "storage"));
      m "locks.wait_share" "share" (ratio (cnt (fun c -> c.waited)) (cnt (fun c -> c.grants)));
      m "locks.wait_ms_per_grant" "ms"
        (sumf (fun r -> ms_of_span r.counts.wait_total) r0
        /. float_of_int (max 1 (cnt (fun c -> c.grants))));
      m "locks.max_queue" "count"
        (float_of_int (List.fold_left (fun acc r -> max acc r.counts.max_queue) 0 r0));
      m "locks.timeouts" "count" (float_of_int (cnt (fun c -> c.timeouts)));
      m "locks.cpu_ns_per_txn" "ns/txn" (per_txn (layer_ns "locks"));
      m "crit.network_ms" "ms" (crit.Obs.Breakdown.mean_network /. 1e6);
      m "crit.log_force_ms" "ms" (crit.mean_log_force /. 1e6);
      m "crit.disk_queue_ms" "ms" (crit.mean_disk_queue /. 1e6);
      m "crit.lock_wait_ms" "ms" (crit.mean_lock_wait /. 1e6);
      m "crit.compute_ms" "ms" (crit.mean_compute /. 1e6);
      m "crit.forces" "force/txn" crit.mean_forces;
      m "crit.messages" "msg/txn" crit.mean_messages;
      m "acp.cpu_ns_per_txn" "ns/txn" (per_txn (layer_ns "acp"));
    ]
    @ by_proto
    @ [
        m "ingress.shed_share" "share" (ratio (cnt (fun c -> c.shed)) (cnt (fun c -> c.ing_submitted)));
        m "ingress.replayed" "count" (float_of_int (cnt (fun c -> c.replayed)));
        m "ingress.coalesced" "count" (float_of_int (cnt (fun c -> c.coalesced)));
        m "cluster.cpu_ns_per_txn" "ns/txn" (per_txn (layer_ns "cluster"));
        m "workload.retry_amplification" "ratio"
          (if cnt (fun c -> c.offered) = 0 then 1.0
           else ratio (cnt (fun c -> c.attempts)) (cnt (fun c -> c.offered)));
        m "workload.gave_up_share" "share"
          (ratio (cnt (fun c -> c.gave_up)) (sum (fun r -> r.submitted) r0));
        m "state.live_words_per_txn" "word/txn" (per_txn (sum (fun r -> r.live_words) r1));
        m "gc.words_per_txn" "word/txn"
          (per_txn (sum (fun r -> r.minor_words) r1));
        m "gc.minor_per_ktxn" "1/ktxn" (per_ktxn gc.minors);
        m "gc.forced_minor_make_vect" "count" (float_of_int gc.make_vect);
        m "gc.major_slices_per_ktxn" "1/ktxn" (per_ktxn gc.major_slices);
        m "gc.pause_share" "share" (float_of_int gc.pause_ns /. (1e9 *. cpu r1));
        m "trace.overhead" "ratio" (cpu r2 /. cpu r1);
      ]
  in
  let table =
    let b = Buffer.create 4096 in
    Printf.bprintf b "layer self time and allocation, traced run (%d committed txns)\n" committed;
    Printf.bprintf b "  %-9s %12s %12s %14s %12s\n" "subsystem" "cpu ms" "ns/txn" "minor words" "words/txn";
    List.iter
      (fun sub ->
        Printf.bprintf b "  %-9s %12.1f %12.0f %14d %12.1f\n" sub
          (ms_of_ns (layer_ns sub)) (per_txn (layer_ns sub)) (layer_words sub)
          (per_txn (layer_words sub)))
      subsystems;
    Buffer.add_string b "per-slice host cost, traced run (all protocols)\n";
    for k = 0 to n_slices - 1 do
      let ns, ev = slice k in
      Printf.bprintf b "  slice %2d %10d events %8.1f ns/event\n" (k + 1) ev (ratio ns ev)
    done;
    Printf.bprintf b "gc: %d minor, %d major slices, %d events lost\n" gc.minors
      gc.major_slices gc.lost;
    Buffer.contents b
  in
  print_protocols r0;
  print_string table;
  print_metrics "per-layer" metrics;
  let name = List.assoc workload (List.map (fun (n, w) -> (w, n)) workloads) in
  let by_proto = List.map (fun r -> (Acp.Protocol.name r.kind, r.prof)) r2 in
  Printf.printf "wrote %s and %s\n"
    (write_file (name ^ ".layers.txt") table)
    (write_file (name ^ ".trace.json") (chrome_trace by_proto));
  (violations, sum (fun r -> r.attempted) (r0 @ r1 @ r2), metrics)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench --workload steady-mix|hot-dir|faults-open --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let wname = get "workload" in
  let workload = match List.assoc_opt wname workloads with Some w -> w | None -> usage () in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  List.iter (fun (k, _) -> if not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ]) then usage ()) opts;
  Printf.printf "perfbench %s seed %d trace %d\n%!" wname seed trace;
  let violations, attempted, metrics =
    try
      if trace = 0 then end_to_end workload ~seed ~seconds
      else per_layer workload ~seed
    with exn -> ([ "exception: " ^ Printexc.to_string exn ], 1, [])
  in
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  let violations =
    if finite then violations
    else violations @ [ "a metric is not a finite number" ]
  in
  List.iter (Printf.printf "FAIL %s\n") violations;
  let correct = violations = [] in
  print_result ~correct ~attempted ~failed:(if correct then 0 else attempted)
    (List.map (fun x -> if Float.is_finite x.value then x else { x with value = 0.0 }) metrics);
  exit (if correct then 0 else 1)
