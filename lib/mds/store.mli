(** Metadata store with a volatile cache over stable state.

    The paper's servers perform transaction updates "in the cache" and
    only later force them to stable storage. The store makes that split
    explicit:

    - the {b volatile} view is what the server reads and mutates while
      executing transactions; it is lost on a crash;
    - the {b durable} view advances only when a transaction's updates
      become durable (the protocol calls {!commit_durable} from its
      log-write completion), and is what a restarted server comes back
      with.

    Undo information for aborts is the inverse-update list returned by
    {!apply_volatile}.

    Every mutation of either view goes through this module, which
    records the key of each update it applies (see {!crash}). *)

type t

val create : name:string -> root:Update.ino option -> t
(** [root = Some ino] installs a root directory in both views (for the
    server that owns the filesystem root). *)

val name : t -> string

val apply_volatile : t -> Update.t -> (Update.t, State.error) result
(** Validate and apply against the volatile view; returns the inverse
    update for the transaction's undo list. *)

val undo_volatile : t -> Update.t list -> unit
(** Apply inverse updates (newest first, as collected) to the volatile
    view. The inverses are replayed with {!State.apply_exn}: failing to
    undo is a simulator bug, not a recoverable condition. *)

val commit_durable : t -> Update.t list -> unit
(** Advance the durable view by a committed transaction's updates (in
    execution order). Must succeed; raises on validation failure. *)

val replay_durable_to_volatile : t -> Update.t list -> unit
(** Recovery helper: apply updates to the volatile view with
    {!State.apply_exn} (used when re-executing redo records whose effects
    are known-valid). *)

val apply_both : t -> Update.t -> unit
(** Apply one update to both views, as if it had always been durable
    (bootstrap: [Cluster.add_directory]). Raises on a validation failure
    in either view. *)

val crash : t -> unit
(** Lose the cache: the volatile view becomes equal to the durable view.

    Cost: proportional to the keys updated since the two views last
    agreed, not to the namespace. The store records the key of every
    update applied to either view (an inode number, or a [(dir, name)]
    dentry; {!Update.Touch} changes nothing) and drops keys whose views
    agree again once the record holds both 64 keys and twice as many as
    its last compaction kept. A crash restores only the recorded keys
    from the durable view, inode keys before dentry keys, so its work is
    bounded by the in-flight updates plus at most 64 stale keys. *)

val volatile : t -> State.t
val durable : t -> State.t
(** Read-only views, for reads, invariant checking and tests. Mutating
    a view directly breaks {!crash}: use {!apply_both} instead. *)

val in_sync : t -> bool
(** Volatile and durable views are structurally equal (true when the
    server is quiescent and every commit has hardened). *)
