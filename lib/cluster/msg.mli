(** Cluster network payload: protocol traffic plus heartbeats. *)

type t =
  | Acp of Acp.Wire.t
  | Heartbeat

val pp : Format.formatter -> t -> unit

val tag_count : int
(** [Acp.Wire.tag_count + 1]: the network meter's tag count. *)

val tag : t -> int
(** The network meter's tag: {!Acp.Wire.tag} for protocol traffic,
    [Acp.Wire.tag_count] for heartbeats. *)

val tag_name : int -> string
(** {!Acp.Wire.tag_name}, or ["HEARTBEAT"] for the heartbeat tag. *)
