(** JSON string escaping, shared by every hand-rolled JSON writer.

    One implementation serves {!Export} (Chrome traces),
    {!Journal.pp_entry} (JSONL), {!Recorder} and {!Json}'s emitter, so an event label or fault description containing quotes,
    backslashes or control bytes escapes identically — and validly — in all of
    them. Short escapes ([\n] [\r] [\t] [\b] [\f]) where JSON has them,
    [\u00XX] for the remaining control bytes, everything else verbatim. *)

val escape : string -> string
(** The escaped body, without surrounding quotes. *)

val add_escaped : Buffer.t -> string -> unit
(** Append the escaped body to [buf] without intermediate allocation. *)
