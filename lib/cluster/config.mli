(** Cluster simulation parameters.

    {!default} is the paper's §IV setup: 1 µs computational latency per
    object method, 100 µs network latency, a 400 KB/s shared disk.
    Timeouts, heartbeat cadence and restart latency are ours (the paper
    does not publish them); failure experiments tighten them for speed.

    [txn_timeout] doubles as the lock-acquisition timeout and the
    protocols' retransmission period, so it must comfortably exceed the
    longest lock queue a workload builds (Figure 6 queues ~100
    transactions behind one directory lock at ~40 ms each). *)

type t = {
  servers : int;
  protocol : Acp.Protocol.kind;
  placement : Mds.Placement.strategy;
  network : Netsim.Network.config;
  san : Storage.San.config;
  sizing : Acp.Log_record.sizing;
  encoded_sizes : bool;
      (** charge each record its {!Acp.Codec.encoded_size} instead of
          the calibrated [sizing] constants (robustness ablation) *)
  method_latency : Simkit.Time.span;  (** per object read/write method *)
  txn_timeout : Simkit.Time.span;
  resend_interval : Simkit.Time.span option;
      (** base period of the protocols' retransmission timers (1PC
          UPDATE_REQ retries and ACK requests, 2PC decision resends and
          outcome queries); [None] (default) keeps the historical
          behaviour of reusing [txn_timeout] *)
  resend_backoff : float;
      (** multiplier applied to the resend interval after each
          successive retransmission of the same message ([>= 1.0]);
          [1.0] (default) resends at a fixed period *)
  max_soft_retries : int;
      (** UPDATE_REQ retransmissions a 1PC coordinator attempts against
          an unsuspected worker before escalating to fence-and-read
          (default 2) *)
  tombstone_ttl : Simkit.Time.span option;
      (** lifetime of a 1PC worker's sticky NO-vote tombstone, counted
          from the last UPDATE_REQ that touched it; [None] (default)
          means 8 x [txn_timeout]. Expired transactions are refused via
          a conservative stale-sequence horizon, never re-executed, so
          the table stays bounded under retry storms without weakening
          the sticky-vote guarantee *)
  tombstone_cap : int;
      (** hard bound on live tombstones per node; exceeding it expires
          the oldest entries early (still safe — they fall behind the
          stale horizon) *)
  replica_group_size : int;
      (** L1PC: how many peers hold copies of each server's volatile
          vote state (ring successors by server slot, clamped to
          [servers - 1]; default 2). Ignored by the logged protocols *)
  heartbeat_interval : Simkit.Time.span;
  detector_timeout : Simkit.Time.span;
  restart_delay : Simkit.Time.span;  (** reboot time after crash/STONITH *)
  auto_restart : bool;  (** crashed nodes come back automatically *)
  seed : int;
  record_trace : bool;  (** keep a full event trace (examples/tests) *)
  record_spans : bool;
      (** record causal spans for the latency breakdown and Chrome-trace
          export ({!Obs}); off by default — the disabled tracer keeps the
          hot path allocation-free *)
  record_journal : bool;
      (** record lifecycle events (crash, suspicion, fencing, scans,
          orphan resolution …) in an {!Obs.Journal}; off by default *)
  sample_period : Simkit.Time.span option;
      (** when [Some p], sample per-node and cluster gauges every [p] of
          simulated time into an {!Obs.Timeseries}; [None] (default)
          records nothing and installs no engine observer *)
  record_prof : bool;
      (** profile host CPU and minor-heap allocation per
          (subsystem, event label) into an {!Obs.Prof}; off by default —
          the disabled path keeps dispatch at one load and one branch *)
  recorder_size : int option;
      (** when [Some n], keep the last [n] dispatched events, message
          deliveries, journal entries and gauge rows in an
          {!Obs.Recorder} flight-recorder ring for incident autopsies;
          [None] (default) records nothing — the disabled path is one
          load and one branch per dispatch *)
  record_coverage : bool;
      (** count protocol state-machine transitions against the declared
          {!Acp.Edges} maps in an {!Obs.Coverage} tap and keep the
          per-wire-tag message-conservation ledger
          ({!Netsim.Network.Meter}); off by default — both disabled
          paths are one load and one branch *)
}

val default : t

val validate : t -> (unit, string) result
(** Sanity-check parameter relationships (e.g. detector timeout vs
    heartbeat interval). *)
