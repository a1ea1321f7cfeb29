let label_stonith = Simkit.Label.v Cluster "stonith.reboot"
let label_auto_restart = Simkit.Label.v Cluster "auto.restart"

type waiting = {
  submitted_at : Simkit.Time.t;
  mutable callback : (Acp.Txn.outcome -> unit) option;
}

type t = {
  config : Config.t;
  engine : Simkit.Engine.t;
  rng : Simkit.Rng.t;
  trace : Simkit.Trace.t;
  obs : Obs.Tracer.t;
  journal : Obs.Journal.t;
  timeseries : Obs.Timeseries.t;
  prof : Obs.Prof.t;
  recorder : Obs.Recorder.t;
  cover : Obs.Coverage.t;
  ledger : Metrics.Ledger.t;
  network : Msg.t Netsim.Network.t;
  san : Acp.Log_record.t Storage.San.t;
  placement : Mds.Placement.t;
  mutable planner : Mds.Planner.t option;  (* set after nodes exist *)
  mutable nodes : Node.t array;
  root : Mds.Update.ino;
  waiting : (int * int, waiting) Hashtbl.t;
  marks : (int * int, (string * Simkit.Time.t) list ref) Hashtbl.t;
  latency_committed : Metrics.Histogram.t;
  latency_aborted : Metrics.Histogram.t;
  mutable committed : int;
  mutable aborted : int;
  mutable next_seq : int;
  mutable next_ino : Mds.Update.ino;
  mutable pending_reads : int;
  (* (queue length, in flight) of an ingress front door, when one is
     attached. A hook rather than a direct reference because the gauge
     set freezes at attach time — before the ingress layer exists. *)
  mutable ingress_probe : (unit -> int * int) option;
}

let set_ingress_probe t probe = t.ingress_probe <- Some probe

let config t = t.config
let engine t = t.engine
let trace t = t.trace
let obs t = t.obs
let journal t = t.journal
let timeseries t = t.timeseries
let prof t = t.prof
let recorder t = t.recorder
let coverage t = t.cover
let meter t = Netsim.Network.meter t.network
let ledger t = t.ledger
let network t = t.network
let san t = t.san
let placement t = t.placement
let root t = t.root
let node t i = t.nodes.(i)
let nodes t = t.nodes
let now t = Simkit.Engine.now t.engine

let key (id : Acp.Txn.id) = (id.origin, id.seq)

let planner t =
  match t.planner with Some p -> p | None -> assert false

(* ------------------------------------------------------------------ *)
(* Reply routing and milestones                                        *)
(* ------------------------------------------------------------------ *)

let client_reply t id outcome =
  match Hashtbl.find_opt t.waiting (key id) with
  | Some w -> (
      match w.callback with
      | Some f ->
          w.callback <- None;
          Hashtbl.remove t.waiting (key id);
          let latency = Simkit.Time.diff (now t) w.submitted_at in
          (* The submit->reply window anchors the critical-path walk;
             only committed transactions belong in the paper's latency
             decomposition. *)
          (if Obs.Tracer.is_recording t.obs then
             match outcome with
             | Acp.Txn.Committed ->
                 Obs.Tracer.span t.obs ~start:w.submitted_at ~stop:(now t)
                   ~txn:(Acp.Txn.owner_token id) ~baseline:false
                   ~category:Obs.Span.Phase ~track:"txn"
                   ~name:Obs.Breakdown.window_name
             | Acp.Txn.Aborted _ -> ());
          (match outcome with
          | Acp.Txn.Committed ->
              t.committed <- t.committed + 1;
              Metrics.Ledger.incr t.ledger "txn.committed";
              Metrics.Histogram.record t.latency_committed latency
          | Acp.Txn.Aborted _ ->
              t.aborted <- t.aborted + 1;
              Metrics.Ledger.incr t.ledger "txn.aborted";
              Metrics.Histogram.record t.latency_aborted latency);
          f outcome
      | None ->
          Hashtbl.remove t.waiting (key id);
          Metrics.Ledger.incr t.ledger "reply.duplicate")
  | None -> Metrics.Ledger.incr t.ledger "reply.duplicate"

let mark t id label =
  let cell =
    match Hashtbl.find_opt t.marks (key id) with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace t.marks (key id) r;
        r
  in
  cell := (label, now t) :: !cell

let marks t id =
  match Hashtbl.find_opt t.marks (key id) with
  | Some r -> List.rev !r
  | None -> []

let mark_span t id ~from_ ~to_ =
  let ms = marks t id in
  match (List.assoc_opt from_ ms, List.assoc_opt to_ ms) with
  | Some a, Some b when Simkit.Time.( >= ) b a -> Some (Simkit.Time.diff b a)
  | _ -> None

let all_mark_spans t ~from_ ~to_ =
  Hashtbl.fold
    (fun (origin, seq) _ acc ->
      match mark_span t { Acp.Txn.origin; seq } ~from_ ~to_ with
      | Some span -> span :: acc
      | None -> acc)
    t.marks []

(* ------------------------------------------------------------------ *)
(* Restart plumbing                                                    *)
(* ------------------------------------------------------------------ *)

(* Client requests whose coordinator lost every trace of them (crash
   before the STARTED/redo record was durable) would otherwise wait
   forever: after recovery has reconstructed everything it can, abort
   the rest. *)
let sweep_orphans t server =
  let n = t.nodes.(server) in
  let log_has id =
    List.exists
      (fun r -> Acp.Txn.id_equal (Acp.Log_record.txn r) id)
      (Storage.Wal.durable (Node.wal n))
  in
  let orphans =
    Hashtbl.fold
      (fun (origin, seq) _ acc ->
        let id = { Acp.Txn.origin; seq } in
        if origin = server && (not (Node.owns n id)) && not (log_has id)
        then id :: acc
        else acc)
      t.waiting []
  in
  List.iter
    (fun (id : Acp.Txn.id) ->
      if Obs.Journal.is_recording t.journal then
        Obs.Journal.emit t.journal ~time:(now t) ~node:server
          (Obs.Journal.Orphan_resolved { origin = id.origin; seq = id.seq });
      client_reply t id (Acp.Txn.Aborted "lost in coordinator crash"))
    orphans

(* The orphan sweep is only sound on a genuine down->up transition: on an
   already-up node it could abort a client request whose transaction is
   still being set up, and the later real reply would then be a
   duplicate. Crash schedules (and auto-restart racing an explicit
   restart) can ask to restart an up node, so every path guards.

   It must also wait for the recovery scan to finish, not run at the
   reboot instant: a STARTED record that was in service at the device
   when the coordinator crashed lands durably *after* reboot, so an
   instant [log_has] check misses it, presumes abort to the client —
   and then recovery finds the record and faithfully re-executes the
   transaction to commit. Sweeping from [on_recovered] closes the race:
   by then the scan has read everything the disk will ever surface and
   reconstructed transactions show up via [Node.owns]. *)
let restart_if_down t server =
  let n = t.nodes.(server) in
  if not (Node.is_up n) then
    Node.restart n ~on_recovered:(fun () -> sweep_orphans t server)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create (config : Config.t) =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cluster.create: " ^ msg));
  let engine = Simkit.Engine.create () in
  let rng = Simkit.Rng.create ~seed:config.seed in
  let trace =
    if config.record_trace then Simkit.Trace.create ()
    else Simkit.Trace.disabled ()
  in
  let obs =
    if config.record_spans then Obs.Tracer.create ()
    else Obs.Tracer.disabled ()
  in
  let journal =
    if config.record_journal then Obs.Journal.create ()
    else Obs.Journal.disabled ()
  in
  let timeseries =
    match config.sample_period with
    | Some period -> Obs.Timeseries.create ~period
    | None -> Obs.Timeseries.disabled ()
  in
  (* Attached immediately so the profile's run window covers assembly
     and bootstrap too; a disabled profiler installs no observer. *)
  let prof =
    if config.record_prof then Obs.Prof.create () else Obs.Prof.disabled ()
  in
  Obs.Prof.attach prof engine;
  (* The flight recorder taps dispatch (engine), deliveries (network),
     journal appends and gauge rows; all taps are passive, so the golden
     tests can pin bit-identical metrics with it on. *)
  let recorder =
    match config.recorder_size with
    | Some capacity -> Obs.Recorder.create ~capacity ()
    | None -> Obs.Recorder.disabled ()
  in
  Obs.Recorder.attach recorder engine;
  Obs.Recorder.tap_journal recorder journal;
  Obs.Recorder.tap_timeseries recorder timeseries;
  let ledger = Metrics.Ledger.create () in
  (* Heartbeats are background chatter, not transaction causality; every
     protocol message becomes a transit span named after its wire label. *)
  let span_of = function
    | Msg.Heartbeat -> None
    | Msg.Acp wire ->
        Some
          ( Acp.Wire.label wire,
            Acp.Txn.owner_token (Acp.Wire.txn wire),
            Acp.Wire.is_baseline wire )
  in
  (* The coverage observatory: an edge tap sized for the declared
     transition maps plus the per-wire-tag conservation meter, with
     heartbeats on their own tag past the wire's. Both passive. *)
  let cover =
    if config.record_coverage then Obs.Coverage.create ~size:Acp.Edges.count
    else Obs.Coverage.disabled ()
  in
  let meter =
    if config.record_coverage then
      Netsim.Network.Meter.create ~tags:(Acp.Wire.tag_count + 1)
    else Netsim.Network.Meter.disabled ()
  in
  let tag_of = function
    | Msg.Heartbeat -> Acp.Wire.tag_count
    | Msg.Acp wire -> Acp.Wire.tag wire
  in
  let network =
    Netsim.Network.create ~engine ~rng:(Simkit.Rng.split rng) ~trace ~obs
      ~journal ~recorder ~span_of ~tag_of ~meter config.network
  in
  let size =
    if config.encoded_sizes then Acp.Codec.encoded_size
    else Acp.Log_record.size config.sizing
  in
  let san = Storage.San.create ~engine ~trace ~obs ~journal ~size config.san in
  let placement =
    Mds.Placement.create
      ~rng:(Simkit.Rng.split rng)
      ~strategy:config.placement ~servers:config.servers ()
  in
  let root = 0 in
  Mds.Placement.assign_root placement root ~server:0;
  let t =
    {
      config;
      engine;
      rng;
      trace;
      obs;
      journal;
      timeseries;
      prof;
      recorder;
      cover;
      ledger;
      network;
      san;
      placement;
      planner = None;
      nodes = [||];
      root;
      waiting = Hashtbl.create 1024;
      marks = Hashtbl.create 1024;
      latency_committed = Metrics.Histogram.create ();
      latency_aborted = Metrics.Histogram.create ();
      committed = 0;
      aborted = 0;
      next_seq = 0;
      next_ino = 1;
      pending_reads = 0;
      ingress_probe = None;
    }
  in
  let services : Node.services =
    {
      engine;
      trace;
      obs;
      journal;
      network;
      san;
      ledger;
      cover;
      config;
      client_reply = (fun id outcome -> client_reply t id outcome);
      stonith =
        (fun victim ->
          let server = Netsim.Address.index victim in
          let n = t.nodes.(server) in
          Metrics.Ledger.incr ledger "node.stonith";
          Node.crash n;
          (* A STONITH power-cycles its victim: it comes back after the
             reboot delay regardless of the auto-restart policy. The
             reboot takes the common restart path so requests the victim
             coordinated and lost are swept (aborted) rather than left
             waiting forever. *)
          ignore
            (Simkit.Engine.schedule engine ~label:label_stonith
               ~after:config.restart_delay (fun () ->
                 restart_if_down t server)));
      mark = (fun id label -> mark t id label);
    }
  in
  let nodes =
    Array.init config.servers (fun server ->
        Node.create services ~server
          ~root:(if server = 0 then Some root else None))
  in
  t.nodes <- nodes;
  let lookup ~server ~dir ~name =
    Mds.State.lookup (Mds.Store.volatile (Node.store nodes.(server))) ~dir ~name
  in
  t.planner <-
    Some
      (Mds.Planner.create ~placement
         ~next_ino:(fun () ->
           let ino = t.next_ino in
           t.next_ino <- ino + 1;
           ino)
         ~lookup);
  Array.iter Node.boot nodes;
  (* Gauge wiring. Closures re-read through [t] and the node accessors on
     every sample so replaced components (a restarted node's fresh lock
     manager, for instance) are always the ones observed. The sampler is
     driven by the engine's clock observer, never by scheduled events, so
     enabling it cannot perturb the run. *)
  if Obs.Timeseries.is_recording timeseries then begin
    Obs.Timeseries.register timeseries ~name:"engine.pending" (fun () ->
        Simkit.Engine.pending engine);
    (* Read-and-reset: each sample reports the heap's maximum occupancy
       during its own interval, not since boot. *)
    Obs.Timeseries.register timeseries ~name:"engine.heap_pending_max"
      (fun () ->
        let m = Simkit.Engine.pending_high_water engine in
        Simkit.Engine.reset_pending_high_water engine;
        m);
    Obs.Timeseries.register timeseries ~name:"engine.dispatch_rate"
      (let last = ref 0 in
       fun () ->
         let d = Simkit.Engine.dispatched engine in
         let rate = d - !last in
         last := d;
         rate);
    Obs.Timeseries.register timeseries ~name:"net.in_flight" (fun () ->
        Netsim.Network.in_flight network);
    Obs.Timeseries.register timeseries ~name:"cluster.pending_replies"
      (fun () -> Hashtbl.length t.waiting);
    Obs.Timeseries.register timeseries ~name:"ingress.queue" (fun () ->
        match t.ingress_probe with Some p -> fst (p ()) | None -> 0);
    Obs.Timeseries.register timeseries ~name:"ingress.inflight" (fun () ->
        match t.ingress_probe with Some p -> snd (p ()) | None -> 0);
    if config.san.Storage.San.shared_device then
      Obs.Timeseries.register timeseries ~name:"disk.queue" (fun () ->
          Storage.Disk.queue_depth (Storage.San.disk san));
    Array.iter
      (fun n ->
        let name = Netsim.Address.name (Node.address n) in
        if not config.san.Storage.San.shared_device then
          Obs.Timeseries.register timeseries ~name:(name ^ ".disk.queue")
            (fun () ->
              Storage.Disk.queue_depth
                (Storage.San.device_for san (Node.address n)));
        Obs.Timeseries.register timeseries ~name:(name ^ ".wal.unforced")
          (fun () -> Storage.Wal.unforced (Node.wal n));
        Obs.Timeseries.register timeseries ~name:(name ^ ".locks.waiters")
          (fun () -> Locks.Lock_manager.live_waiters (Node.locks n));
        Obs.Timeseries.register timeseries ~name:(name ^ ".txns.outstanding")
          (fun () -> Node.outstanding n);
        Obs.Timeseries.register timeseries ~name:(name ^ ".suspects")
          (fun () -> Node.suspect_count n))
      nodes;
    Obs.Timeseries.attach timeseries engine
  end;
  t

(* ------------------------------------------------------------------ *)
(* Bootstrap                                                           *)
(* ------------------------------------------------------------------ *)

let add_directory t ~parent ~name ?server () =
  let parent_server = Mds.Placement.node_of t.placement parent in
  let ino = t.next_ino in
  t.next_ino <- ino + 1;
  (match server with
  | Some s -> Mds.Placement.assign_root t.placement ino ~server:s
  | None -> ignore (Mds.Placement.place t.placement ~parent_server ino));
  let dir_server = Mds.Placement.node_of t.placement ino in
  let link = Mds.Update.Link { dir = parent; name; target = ino } in
  let create =
    Mds.Update.Create_inode { ino; kind = Mds.Update.Directory; nlink = 1 }
  in
  let apply server u =
    let store = Node.store t.nodes.(server) in
    ignore (Mds.State.apply_exn (Mds.Store.volatile store) u);
    ignore (Mds.State.apply_exn (Mds.Store.durable store) u)
  in
  apply parent_server link;
  apply dir_server create;
  ino

(* ------------------------------------------------------------------ *)
(* Client API                                                          *)
(* ------------------------------------------------------------------ *)

(* Rejections that never become transactions (planning failure, downed
   coordinator) answer synchronously — there is no protocol activity to
   wait for, and the caller must see the reply even if it never runs the
   engine again. *)
let finish_immediately t on_done outcome =
  (match outcome with
  | Acp.Txn.Committed -> t.committed <- t.committed + 1
  | Acp.Txn.Aborted _ ->
      t.aborted <- t.aborted + 1;
      Metrics.Ledger.incr t.ledger "txn.rejected");
  on_done outcome

let plan t op =
  match Mds.Planner.plan (planner t) op with
  | Ok plan -> Ok plan
  | Error e -> Error (Fmt.str "plan: %a" Mds.Planner.pp_error e)

let submit_plan t plan ~on_done =
  let coordinator = plan.Mds.Plan.coordinator.Mds.Plan.server in
  let node = t.nodes.(coordinator) in
  if not (Node.is_serving node) then
    finish_immediately t on_done (Acp.Txn.Aborted "coordinator down")
  else begin
    let id = { Acp.Txn.origin = coordinator; seq = t.next_seq } in
    t.next_seq <- t.next_seq + 1;
    Hashtbl.replace t.waiting (key id)
      { submitted_at = now t; callback = Some on_done };
    Metrics.Ledger.incr t.ledger "txn.submitted";
    Metrics.Ledger.incr t.ledger
      (if plan.Mds.Plan.workers = [] then "txn.plan.local"
       else "txn.plan.distributed");
    let txn = { Acp.Txn.id; plan } in
    if plan.Mds.Plan.workers = [] then Node.run_local node txn
    else Node.submit node txn
  end

let submit t op ~on_done =
  match plan t op with
  | Error reason -> finish_immediately t on_done (Acp.Txn.Aborted reason)
  | Ok plan -> submit_plan t plan ~on_done

let pending_replies t = Hashtbl.length t.waiting

(* Reads are served by the directory's owner under a shared lock; they
   borrow the transaction id space for their lock-owner tokens and are
   tracked for quiescence like any other outstanding work. *)
let run_read t ~dir ~read ~on_done =
  match Mds.Placement.node_of t.placement dir with
  | exception Not_found -> on_done (Error "unknown directory")
  | server ->
      let node = t.nodes.(server) in
      if not (Node.is_serving node) then
        on_done (Error "directory server down")
      else begin
        let id = { Acp.Txn.origin = server; seq = t.next_seq } in
        t.next_seq <- t.next_seq + 1;
        t.pending_reads <- t.pending_reads + 1;
        Node.run_read node ~owner:(Acp.Txn.owner_token id) ~dir ~read
          ~on_done:(fun result ->
            t.pending_reads <- t.pending_reads - 1;
            on_done result)
      end

let lookup t ~dir ~name ~on_done =
  run_read t ~dir ~read:(fun state -> Mds.State.lookup state ~dir ~name)
    ~on_done

let readdir t ~dir ~on_done =
  run_read t ~dir
    ~read:(fun state ->
      match Mds.State.list_dir state dir with
      | Some entries -> entries
      | None -> [])
    ~on_done

(* ------------------------------------------------------------------ *)
(* Faults                                                              *)
(* ------------------------------------------------------------------ *)

let crash t server =
  Node.crash t.nodes.(server);
  if t.config.auto_restart then
    ignore
      (Simkit.Engine.schedule t.engine ~label:label_auto_restart
         ~after:t.config.restart_delay (fun () -> restart_if_down t server))

let restart t server = restart_if_down t server

let partition t left right =
  let addr s = Node.address t.nodes.(s) in
  Netsim.Network.partition t.network (List.map addr left)
    (List.map addr right)

let heal t = Netsim.Network.heal t.network

let heal_pair t a b =
  let addr s = Node.address t.nodes.(s) in
  Netsim.Network.heal_pair t.network (addr a) (addr b)

let set_drop_probability t p = Netsim.Network.set_drop_probability t.network p

let set_duplicate_probability t p =
  Netsim.Network.set_duplicate_probability t.network p

let set_disk_slowdown t factor =
  List.iter
    (fun d -> Storage.Disk.set_slowdown d factor)
    (Storage.San.devices t.san)

let set_fencing_available t b = Storage.San.set_fencing_available t.san b

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

let run_for t span =
  let stop = Simkit.Time.add (now t) span in
  ignore (Simkit.Engine.run ~until:stop t.engine)

type settle_outcome = Quiescent | Deadline_exceeded | Stuck

(* Quiescent means nothing is left to resolve anywhere: every client
   answered, no protocol state on any live node, nothing in flight, the
   disk idle, and — crucially — every log partition checkpointed empty.
   A crashed node with log records still has recovery work ahead of it
   (its auto-restart or STONITH reboot is a pending event), so the
   system is not yet done. *)
let quiescent t =
  pending_replies t = 0
  && t.pending_reads = 0
  && Array.for_all (fun n -> Node.outstanding n = 0) t.nodes
  && Netsim.Network.in_flight t.network = 0
  && List.for_all
       (fun d -> Storage.Disk.queue_depth d = 0)
       (Storage.San.devices t.san)
  && Array.for_all (fun n -> Storage.Wal.durable (Node.wal n) = []) t.nodes

let settle ?(deadline = Simkit.Time.span_s 600) t =
  let stop = Simkit.Time.add (now t) deadline in
  let rec loop () =
    if quiescent t then Quiescent
    else if Simkit.Time.( > ) (now t) stop then Deadline_exceeded
    else if Simkit.Engine.step t.engine then loop ()
    else Stuck
  in
  loop ()

type node_diagnostics = {
  server : int;
  node_up : bool;
  node_serving : bool;
  outstanding : int;
  wal_records : int;
}

type diagnostics = {
  pending_replies : int;
  pending_reads : int;
  in_flight_messages : int;
  engine_events : int;
  disk_queue_depths : int list;
  per_node : node_diagnostics list;
}

let settle_diagnostics t =
  {
    pending_replies = Hashtbl.length t.waiting;
    pending_reads = t.pending_reads;
    in_flight_messages = Netsim.Network.in_flight t.network;
    engine_events = Simkit.Engine.pending t.engine;
    disk_queue_depths =
      List.map Storage.Disk.queue_depth (Storage.San.devices t.san);
    per_node =
      Array.to_list
        (Array.map
           (fun n ->
             {
               server = Node.server n;
               node_up = Node.is_up n;
               node_serving = Node.is_serving n;
               outstanding = Node.outstanding n;
               wal_records = List.length (Storage.Wal.durable (Node.wal n));
             })
           t.nodes);
  }

let pp_diagnostics ppf d =
  Fmt.pf ppf
    "@[<v>%d pending replies, %d pending reads, %d messages in flight, %d \
     engine events@,disk queues: %a@,%a@]"
    d.pending_replies d.pending_reads d.in_flight_messages d.engine_events
    Fmt.(list ~sep:comma int)
    d.disk_queue_depths
    Fmt.(
      list ~sep:cut (fun ppf n ->
          pf ppf "mds%d: %s, %d txns outstanding, %d log records" n.server
            (if not n.node_up then "down"
             else if n.node_serving then "serving"
             else "recovering")
            n.outstanding n.wal_records))
    d.per_node

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

let check_invariants t =
  Mds.Invariant.check ~placement:t.placement ~root:t.root
    ~states:(Array.map (fun n -> Mds.Store.durable (Node.store n)) t.nodes)

let txn_counts t = (t.committed, t.aborted)
let latency_committed t = t.latency_committed
let latency_aborted t = t.latency_aborted
