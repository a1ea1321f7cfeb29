(** Host profiler: CPU self-time and minor-heap allocation per
    (subsystem, event label).

    Wraps every engine dispatch in a pre/post observer pair
    ({!Simkit.Engine.set_dispatch_observer}) that stamps the host
    monotonic clock and [Gc.minor_words], and attributes the deltas to
    the dispatched event's interned {!Simkit.Label} — so a profile says
    which of netsim / storage / locks / acp / cluster the host CPU went
    to, not just that a run got slower. Purely passive with respect to
    the simulation: no events are added, no simulated clock is read, no
    randomness is consumed, and golden digits are bit-identical with
    profiling on (the test suite pins this).

    The unattributed remainder — heap maintenance, the dispatch loop,
    observer overhead — lands in an explicit residual, so
    [total_cpu_ns = sum of bucket cpu_ns + residual_cpu_ns] holds
    exactly (tolerance zero; also a pinned test). *)

type t

val create : unit -> t
(** A recording profiler. Attach it before running the engine. *)

val disabled : unit -> t
(** Never records; {!attach} is a no-op. The engine keeps its
    one-load-one-branch unobserved dispatch path. *)

val is_recording : t -> bool

val attach : t -> Simkit.Engine.t -> unit
(** Install the dispatch observer pair and stamp the start of the run
    window. No-op on a disabled profiler.
    @raise Invalid_argument on a second attach of the same profiler. *)

(** {1 Reports} *)

type bucket = {
  subsystem : string;  (** {!Simkit.Label.subsystem_name} *)
  label : string;
  dispatches : int;
  cpu_ns : int;  (** summed per-dispatch self time, monotonic-clock ns *)
  minor_words : int;  (** summed per-dispatch minor-heap allocation *)
  max_cpu_ns : int;  (** the single most expensive dispatch *)
}

type report = {
  total_cpu_ns : int;  (** whole run window: {!attach} -> {!report} *)
  total_minor_words : int;
  total_dispatches : int;
  buckets : bucket list;  (** sorted by [cpu_ns] descending *)
  residual_cpu_ns : int;
      (** [total_cpu_ns - sum cpu_ns]: engine overhead between
          callbacks. Exact by construction. *)
  residual_minor_words : int;
}

val report : t -> report
(** Snapshot the aggregation. The end-of-window stamps are taken before
    any report bookkeeping, so building the report never pollutes it.
    @raise Invalid_argument if disabled or never attached. *)

val by_subsystem : report -> (string * int * int) list
(** [(subsystem, cpu_ns, minor_words)] rollup, residual included under
    ["engine"], sorted by cpu descending — the split [bench check]
    records in its baseline. *)

val residual_subsystem : string
(** ["engine"] — where {!by_subsystem} books the residual. *)

val residual_label : string
(** ["(residual)"] — the residual's label row in table/speedscope
    output. *)

val to_table : ?top:int -> report -> Metrics.Table.t
(** Top-[top] (default 15) buckets by CPU, a rollup row for the rest,
    then separator, residual and total rows. *)

val speedscope_json : name:string -> report -> Json.t
(** The profile as a speedscope "sampled" document: one
    [subsystem > subsystem/label] stack per bucket weighted by its self
    cpu_ns, plus the residual stack, so the flame graph's root spans
    exactly [total_cpu_ns]. Open at https://www.speedscope.app or with
    [speedscope <file>]. *)

val speedscope_to_file : path:string -> name:string -> report -> unit
(** Write {!speedscope_json} to [path], creating parent
    directories as needed. *)
