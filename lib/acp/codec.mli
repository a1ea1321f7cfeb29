(** Exact encoded size of a log record.

    Each record is sized as a compact, self-describing binary encoding
    would store it: LEB128 varints, length-prefixed strings, tagged
    variants. With [Config.encoded_sizes] the disk model charges each
    record this footprint instead of the calibrated constants, an
    ablation showing the paper's result does not hinge on the
    calibration. Nothing in the simulator decodes records, so only the
    writer exists. *)

val encoded_size : Log_record.t -> int
(** Bytes in the record's encoding.
    @raise Invalid_argument if the record holds a negative integer. *)
