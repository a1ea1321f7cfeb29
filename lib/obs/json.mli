(** The tree's one JSON value type, emitter and strict reader.

    Every JSON artifact the repository writes and later re-reads goes
    through here: the bench harness's [BENCH_*.json] files, speedscope
    profiles, the incident bundles {!Autopsy} writes and validates, and
    the tests that schema-check {!Export} output. The streaming writers
    ({!Export}, {!Journal}, {!Recorder}) build their text by hand for
    speed but escape through {!Json_str} and open files through
    {!write_file}, so everything they emit parses here.

    The reader accepts exactly RFC 8259 JSON: no raw control bytes in
    strings, no [+1], [01], [1.] or [.5], no bare words other than
    [true], [false] and [null]. [\u] escapes decode to UTF-8; every
    other byte passes through verbatim. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** a number with no fraction or exponent that fits an [int] *)
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** fields in document order *)

(** {1 Writing} *)

val to_buffer : Buffer.t -> t -> unit
(** Compact form, no whitespace. Floats print as ["%.1f"] when integral
    (below 1e15) and ["%.6g"] otherwise.
    @raise Invalid_argument on a NaN or infinite [Float], which JSON
    cannot represent. *)

val to_string : t -> string
(** {!to_buffer} into a fresh string. *)

val write_file : string -> (out_channel -> unit) -> unit
(** [write_file path f] creates [path]'s missing parent directories,
    opens [path] (truncating it), runs [f] on the channel and closes it,
    also when [f] raises. *)

val to_file : string -> t -> unit
(** {!to_string} plus a trailing newline, through {!write_file}. *)

(** {1 Reading} *)

exception Parse_error of string
(** ["offset N: reason"], N the byte offset where the reader stopped. *)

val parse : string -> t
(** The whole string must be one JSON value, optionally surrounded by
    whitespace.
    @raise Parse_error otherwise. *)

val read_file : string -> string
(** The file's bytes. *)

val of_file : string -> t
(** [parse (read_file path)]. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** The first field named [k] of an object; [None] for a missing field
    or a non-object. *)

val to_int : t option -> int option
(** An [Int], or an integral [Float]. *)

val to_float : t option -> float option
(** A [Float] or an [Int]. *)

val to_str : t option -> string option
