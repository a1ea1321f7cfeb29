(** Named counters.

    A ledger is a flat registry of integer counters identified by string
    keys (["acp.fence"], ["node.crash"], ...). It holds the counts no
    other module keeps; a count that has an owner (the network meter,
    a WAL, the cluster, the ingress, the batcher) is read from that
    owner instead. *)

type t

val create : unit -> t
val incr : t -> string -> unit
val get : t -> string -> int
(** 0 for a never-bumped key. *)

val snapshot : t -> (string * int) list
(** Sorted association list of all counters. *)
