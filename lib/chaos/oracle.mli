(** End-of-run correctness oracles.

    What a chaos run must satisfy once the dust settles, whatever the
    fault schedule did:

    - {b liveness} — the cluster reaches quiescence once faults stop
      (a [Stuck] or deadline-exceeded {!Opc_cluster.Cluster.settle} is a
      failure, reported with {!Opc_cluster.Cluster.settle_diagnostics});
    - {b exactly-once} — every submitted operation's [on_done] fired,
      and fired once;
    - {b invariants} — the paper's §II namespace invariants over all
      durable images;
    - {b convergence} — each serving node's volatile cache equals its
      durable state;
    - {b atomicity} — the durable namespace equals a replay of exactly
      the committed operations (in completion order): no committed
      effect missing, no aborted effect visible, no half-applied
      cross-server rename.

    State oracles are only sound at quiescence — mid-transaction a
    worker legitimately hardens before its coordinator — which is why
    {!check} takes the {!Opc_cluster.Cluster.settle} verdict and stops
    at the liveness violation when the run never settled. A third
    mid-run oracle rides along for free: unfenced foreign log reads
    raise inside the simulation and surface as {!Run_exception}. *)

type violation =
  | Stuck of string  (** diagnostics dump *)
  | Deadline_exceeded of string
  | Unanswered of { index : int; op : string }
  | Multiple_replies of { index : int; op : string; replies : int }
  | Invariant of Mds.Invariant.violation
  | Store_divergence of { server : int }
  | Missing_entry of { dir : Mds.Update.ino; name : string }
      (** committed but absent from the durable directory *)
  | Phantom_entry of { dir : Mds.Update.ino; name : string }
      (** durable but aborted, deleted or renamed away *)
  | Run_exception of string
      (** an exception escaped the simulation (fencing discipline
          violations raise; so do simulator bugs) *)
  | Unresolved_request of { index : int; op : string }
      (** an open-loop client never reached commit, abort or give-up *)
  | Reexecution of { index : int; op : string; execs : int }
      (** one idempotency key handed to the cluster more than once *)
  | Reply_mismatch of { index : int; op : string; detail : string }
      (** client-observed outcome disagrees with the replay cache *)
  | Shed_leak of { dir : Mds.Update.ino; name : string }
      (** an operation answered BUSY on every attempt left state behind *)
  | Goodput_collapse of { reference : float; storm : float; floor : float }
      (** goodput past the knee fell under [floor * reference] *)
  | Conservation of { tag : string; imbalance : int }
      (** the per-tag message ledger broke
          [sent = delivered + dup + dropped + in_flight] — a network
          accounting bug, checked at tolerance zero on every run *)

val pp_violation : Format.formatter -> violation -> unit

val is_liveness : violation -> bool

val check :
  Opc_cluster.Cluster.t ->
  workload:Workload.t ->
  dirs:Mds.Update.ino array ->
  settled:Opc_cluster.Cluster.settle_outcome ->
  violation list
(** All violations ([] = the run passes). [dirs] are the directories the
    workload targeted; [workload] supplies the per-operation records
    ({!Workload.records}). *)

val check_open_loop :
  Opc_cluster.Cluster.t ->
  ingress:Opc_cluster.Ingress.t ->
  open_loop:Workload.Open_loop.t ->
  dirs:Mds.Update.ino array ->
  settled:Opc_cluster.Cluster.settle_outcome ->
  violation list
(** The overload variant of {!check}, for a run driven through an
    {!Opc_cluster.Ingress} by {!Workload.Open_loop}: liveness, every
    request resolved client-side, exactly-once execution per idempotency
    key, replay-cache/client agreement, §II invariants, cache/stable
    convergence, and the durable namespace equal to a replay of the
    ingress's committed completions — which implies a shed (all-BUSY)
    request left zero state ({!Shed_leak} names that case precisely). *)

val check_goodput_floor :
  reference:Workload.Open_loop.stats ->
  storm:Workload.Open_loop.stats ->
  floor:float ->
  violation list
(** Graceful degradation: the storm run's goodput must be at least
    [floor] of the reference run's ([] when it is, or when the reference
    itself committed nothing). *)
