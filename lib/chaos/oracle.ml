type violation =
  | Stuck of string
  | Deadline_exceeded of string
  | Unanswered of { index : int; op : string }
  | Multiple_replies of { index : int; op : string; replies : int }
  | Invariant of Mds.Invariant.violation
  | Store_divergence of { server : int }
  | Missing_entry of { dir : Mds.Update.ino; name : string }
  | Phantom_entry of { dir : Mds.Update.ino; name : string }
  | Run_exception of string
  | Unresolved_request of { index : int; op : string }
  | Reexecution of { index : int; op : string; execs : int }
  | Reply_mismatch of { index : int; op : string; detail : string }
  | Shed_leak of { dir : Mds.Update.ino; name : string }
  | Goodput_collapse of {
      reference : float;
      storm : float;
      floor : float;  (** required fraction of [reference] *)
    }
  | Conservation of { tag : string; imbalance : int }

let pp_violation ppf = function
  | Stuck diag -> Fmt.pf ppf "liveness: stuck short of quiescence@,%s" diag
  | Deadline_exceeded diag ->
      Fmt.pf ppf "liveness: settle deadline exceeded@,%s" diag
  | Unanswered { index; op } ->
      Fmt.pf ppf "op #%d (%s) never got a reply" index op
  | Multiple_replies { index; op; replies } ->
      Fmt.pf ppf "op #%d (%s) replied %d times" index op replies
  | Invariant v -> Fmt.pf ppf "invariant: %a" Mds.Invariant.pp_violation v
  | Store_divergence { server } ->
      Fmt.pf ppf "mds%d: volatile and durable views diverge at quiescence"
        server
  | Missing_entry { dir; name } ->
      Fmt.pf ppf "committed entry %S missing from directory %d" name dir
  | Phantom_entry { dir; name } ->
      Fmt.pf ppf "phantom entry %S in directory %d (aborted or deleted)"
        name dir
  | Run_exception e -> Fmt.pf ppf "exception escaped the run: %s" e
  | Unresolved_request { index; op } ->
      Fmt.pf ppf "request #%d (%s) never resolved client-side" index op
  | Reexecution { index; op; execs } ->
      Fmt.pf ppf "request #%d (%s) executed %d times despite one key" index
        op execs
  | Reply_mismatch { index; op; detail } ->
      Fmt.pf ppf "request #%d (%s): replay cache disagrees: %s" index op
        detail
  | Shed_leak { dir; name } ->
      Fmt.pf ppf
        "shed request's entry %S appeared in directory %d (a BUSY op \
         mutated state)"
        name dir
  | Goodput_collapse { reference; storm; floor } ->
      Fmt.pf ppf
        "goodput collapsed past the knee: %.1f/s under storm vs %.1f/s \
         reference (floor %.0f%%)"
        storm reference (floor *. 100.)
  | Conservation { tag; imbalance } ->
      Fmt.pf ppf
        "message conservation broken for %s: sent - (delivered + dup + \
         dropped + in_flight) = %d"
        tag imbalance

let is_liveness = function
  | Stuck _ | Deadline_exceeded _ -> true
  | _ -> false

(* The namespace the cluster should hold: replay committed operations in
   completion order against an empty model. Workload names are unique
   per (appearance, directory), so the only ordering that matters — a
   name's appearance before its removal — is exactly completion order
   (the generator only targets files whose creation already replied). *)
let expected_namespace records =
  let model : (Mds.Update.ino * string, unit) Hashtbl.t =
    Hashtbl.create 256
  in
  let committed =
    List.filter
      (fun r ->
        match r.Workload.outcome with
        | Some Acp.Txn.Committed -> true
        | _ -> false)
      records
  in
  let by_rank =
    List.sort
      (fun a b ->
        compare a.Workload.completion_rank b.Workload.completion_rank)
      committed
  in
  List.iter
    (fun r ->
      match r.Workload.op with
      | Mds.Op.Create { parent; name; _ } ->
          Hashtbl.replace model (parent, name) ()
      | Mds.Op.Delete { parent; name } -> Hashtbl.remove model (parent, name)
      | Mds.Op.Rename { src_dir; src_name; dst_dir; dst_name } ->
          Hashtbl.remove model (src_dir, src_name);
          Hashtbl.replace model (dst_dir, dst_name) ())
    by_rank;
  model

(* Per-tag message conservation: at quiescence every send the network
   accepted must be accounted for, exactly — sent = delivered +
   dup_delivered + dropped + in_flight, tolerance zero. Empty unless
   the run recorded coverage (the meter is otherwise disabled). *)
let conservation cluster =
  let meter = Opc_cluster.Cluster.meter cluster in
  if not (Netsim.Network.Meter.is_recording meter) then []
  else
    List.map
      (fun (tag, imbalance) ->
        let tag =
          if tag = Acp.Wire.tag_count then "HEARTBEAT"
          else Acp.Wire.tag_name tag
        in
        Conservation { tag; imbalance })
      (Netsim.Network.Meter.check meter)

let durable_of cluster dir =
  let owner =
    Mds.Placement.node_of (Opc_cluster.Cluster.placement cluster) dir
  in
  Mds.Store.durable
    (Opc_cluster.Node.store (Opc_cluster.Cluster.node cluster owner))

let check cluster ~workload ~dirs ~settled =
  match settled with
  | Opc_cluster.Cluster.Stuck ->
      [ Stuck
          (Fmt.str "%a" Opc_cluster.Cluster.pp_diagnostics
             (Opc_cluster.Cluster.settle_diagnostics cluster)) ]
  | Opc_cluster.Cluster.Deadline_exceeded ->
      [ Deadline_exceeded
          (Fmt.str "%a" Opc_cluster.Cluster.pp_diagnostics
             (Opc_cluster.Cluster.settle_diagnostics cluster)) ]
  | Opc_cluster.Cluster.Quiescent ->
      let records = Workload.records workload in
      let violations = ref [] in
      let add v = violations := v :: !violations in
      (* Exactly-once reply delivery. *)
      List.iter
        (fun r ->
          let op = Fmt.str "%a" Mds.Op.pp r.Workload.op in
          (match r.Workload.outcome with
          | None -> add (Unanswered { index = r.Workload.index; op })
          | Some _ -> ());
          if r.Workload.replies > 1 then
            add
              (Multiple_replies
                 { index = r.Workload.index; op; replies = r.Workload.replies }))
        records;
      (* Global durable-image invariants (the paper's §II). *)
      List.iter
        (fun v -> add (Invariant v))
        (Opc_cluster.Cluster.check_invariants cluster);
      (* At quiescence every commit has hardened, so each serving
         node's cache must equal its stable state. *)
      Array.iteri
        (fun server n ->
          if
            Opc_cluster.Node.is_serving n
            && not (Mds.Store.in_sync (Opc_cluster.Node.store n))
          then add (Store_divergence { server }))
        (Opc_cluster.Cluster.nodes cluster);
      (* Cross-server atomicity: the durable namespace must equal the
         committed-prefix replay — a committed rename is visible at the
         destination and gone from the source, an aborted one is intact
         at the source, with no partial mixtures. *)
      let model = expected_namespace records in
      Array.iter
        (fun dir ->
          let durable = durable_of cluster dir in
          let actual =
            match Mds.State.list_dir durable dir with
            | Some entries -> List.map fst entries
            | None -> []
          in
          Hashtbl.iter
            (fun (d, name) () ->
              if d = dir && not (List.mem name actual) then
                add (Missing_entry { dir; name }))
            model;
          List.iter
            (fun name ->
              if not (Hashtbl.mem model (dir, name)) then
                add (Phantom_entry { dir; name }))
            actual)
        dirs;
      List.iter add (conservation cluster);
      List.rev !violations

(* ------------------------------------------------------------------ *)
(* Open-loop / overload checks                                         *)
(* ------------------------------------------------------------------ *)

(* Ground truth under overload is the ingress ledger, not the client
   view: a request whose client gave up may still have completed
   server-side (legitimately — the client just stopped waiting), so the
   expected namespace replays the ingress completion order, and the
   client-side records are checked for resolution, exactly-once
   execution and replay-cache coherence. *)
let check_open_loop cluster ~ingress ~open_loop ~dirs ~settled =
  match settled with
  | Opc_cluster.Cluster.Stuck ->
      [ Stuck
          (Fmt.str "%a" Opc_cluster.Cluster.pp_diagnostics
             (Opc_cluster.Cluster.settle_diagnostics cluster)) ]
  | Opc_cluster.Cluster.Deadline_exceeded ->
      [ Deadline_exceeded
          (Fmt.str "%a" Opc_cluster.Cluster.pp_diagnostics
             (Opc_cluster.Cluster.settle_diagnostics cluster)) ]
  | Opc_cluster.Cluster.Quiescent ->
      let requests = Workload.Open_loop.requests open_loop in
      let violations = ref [] in
      let add v = violations := v :: !violations in
      (* Pure-shed requests: every attempt answered BUSY before ever
         reaching the planner. Their names must not exist anywhere. *)
      let shed_names : (Mds.Update.ino * string, unit) Hashtbl.t =
        Hashtbl.create 64
      in
      List.iter
        (fun (r : Workload.Open_loop.request) ->
          let op = Fmt.str "%a" Mds.Op.pp r.req_op in
          (match r.resolution with
          | None -> add (Unresolved_request { index = r.req_index; op })
          | Some _ -> ());
          let execs = Opc_cluster.Ingress.executions ingress ~key:r.req_key in
          if execs > 1 then
            add (Reexecution { index = r.req_index; op; execs });
          (match
             (r.resolution, Opc_cluster.Ingress.find_reply ingress ~key:r.req_key)
           with
          | ( Some Workload.Open_loop.R_committed,
              Some (Opc_cluster.Ingress.Done Acp.Txn.Committed) ) ->
              ()
          | Some Workload.Open_loop.R_committed, other ->
              add
                (Reply_mismatch
                   {
                     index = r.req_index;
                     op;
                     detail =
                       (match other with
                       | None -> "client saw commit but no cached reply"
                       | Some Opc_cluster.Ingress.Busy ->
                           "client saw commit but cache says BUSY"
                       | Some (Opc_cluster.Ingress.Done _) ->
                           "client saw commit but cache says abort");
                   })
          | ( Some (Workload.Open_loop.R_aborted _),
              Some (Opc_cluster.Ingress.Done (Acp.Txn.Aborted _)) ) ->
              ()
          | Some (Workload.Open_loop.R_aborted _), other ->
              add
                (Reply_mismatch
                   {
                     index = r.req_index;
                     op;
                     detail =
                       (match other with
                       | None -> "client saw abort but no cached reply"
                       | Some Opc_cluster.Ingress.Busy ->
                           "client saw abort but cache says BUSY"
                       | Some (Opc_cluster.Ingress.Done _) ->
                           "client saw abort but cache says commit");
                   })
          | (Some Workload.Open_loop.R_gave_up | None), _ -> ());
          if execs = 0 then
            match r.req_op with
            | Mds.Op.Create { parent; name; _ } ->
                Hashtbl.replace shed_names (parent, name) ()
            | Mds.Op.Delete _ | Mds.Op.Rename _ -> ())
        requests;
      (* Global durable-image invariants and cache/stable agreement. *)
      List.iter
        (fun v -> add (Invariant v))
        (Opc_cluster.Cluster.check_invariants cluster);
      Array.iteri
        (fun server n ->
          if
            Opc_cluster.Node.is_serving n
            && not (Mds.Store.in_sync (Opc_cluster.Node.store n))
          then add (Store_divergence { server }))
        (Opc_cluster.Cluster.nodes cluster);
      (* Expected namespace: committed completions in completion order. *)
      let model : (Mds.Update.ino * string, unit) Hashtbl.t =
        Hashtbl.create 256
      in
      List.iter
        (fun (_key, op, outcome) ->
          match (outcome, op) with
          | Acp.Txn.Committed, Mds.Op.Create { parent; name; _ } ->
              Hashtbl.replace model (parent, name) ()
          | Acp.Txn.Committed, Mds.Op.Delete { parent; name } ->
              Hashtbl.remove model (parent, name)
          | Acp.Txn.Committed, Mds.Op.Rename { src_dir; src_name; dst_dir; dst_name }
            ->
              Hashtbl.remove model (src_dir, src_name);
              Hashtbl.replace model (dst_dir, dst_name) ()
          | Acp.Txn.Aborted _, _ -> ())
        (Opc_cluster.Ingress.completed_in_order ingress);
      Array.iter
        (fun dir ->
          let durable = durable_of cluster dir in
          let actual =
            match Mds.State.list_dir durable dir with
            | Some entries -> List.map fst entries
            | None -> []
          in
          Hashtbl.iter
            (fun (d, name) () ->
              if d = dir && not (List.mem name actual) then
                add (Missing_entry { dir; name }))
            model;
          List.iter
            (fun name ->
              if not (Hashtbl.mem model (dir, name)) then
                if Hashtbl.mem shed_names (dir, name) then
                  add (Shed_leak { dir; name })
                else add (Phantom_entry { dir; name }))
            actual)
        dirs;
      List.iter add (conservation cluster);
      List.rev !violations

(* The graceful-degradation oracle proper: goodput past the knee must
   hold a floor fraction of the pre-knee reference. *)
let check_goodput_floor ~reference ~storm ~floor =
  let ref_gp = reference.Workload.Open_loop.goodput_per_s in
  let storm_gp = storm.Workload.Open_loop.goodput_per_s in
  if ref_gp > 0.0 && storm_gp < floor *. ref_gp then
    [ Goodput_collapse { reference = ref_gp; storm = storm_gp; floor } ]
  else []
