(** The BARRACUDA race detector (optimized, record-driven).

    Consumes fixed-size warp records ({!Wire}) — as the real system's
    host detector does with records drained from GPU queues; simulator
    events fed through {!feed} are serialized into the same records
    first — and implements the operational
    semantics of Figures 2–3 with all of the paper's optimizations:

    - per-thread vector clocks compressed at warp granularity
      ({!Warp_clocks}: CONVERGED / DIVERGED / NESTEDDIVERGED / SPARSEVC);
    - epochs + on-demand read-clock inflation in shadow memory
      ({!Shadow}), allocated page-wise on first touch;
    - synchronization locations in their own map ({!Sync_loc});
    - block barriers via a broadcast of the block's maximum clock;
    - same-value intra-warp write filtering (§3.3.1);
    - barrier-divergence detection.

    Acquire/release roles come from the static {!Gtrace.Roles}
    classification of the kernel.  On any trace the reports must match
    {!Reference}; the test suite enforces this. *)

type config = {
  max_reports : int;
  filter_same_value : bool;
  shadow_granularity : int;  (** bytes per shadow cell; 1 = the paper *)
  check_integrity : bool;
      (** validate magic/version/checksum and producer sequence numbers
          on the {!feed_record} path (default true); anomalies are
          counted, absorbed, and degrade the verdict via {!Report} *)
}

val default_config : config

type stats = {
  accesses_checked : int;  (** thread-level access operations processed *)
  records_processed : int;  (** warp-level events processed *)
  ptvc_converged : int;  (** census: warp format observed per record *)
  ptvc_diverged : int;
  ptvc_nested : int;
  ptvc_sparse : int;
  shadow_pages : int;
  shadow_cells : int;
  shadow_bytes : int;
  sync_locations : int;
  ptvc_bytes : int;  (** compressed PTVC footprint at the end of the run *)
  full_vc_bytes : int;  (** what uncompressed per-thread VCs would need *)
}

type t

val create :
  ?config:config ->
  ?owns:(Ptx.Ast.space -> int -> int -> bool) ->
  layout:Vclock.Layout.t ->
  Ptx.Ast.kernel ->
  t
(** [owns] is the shadow-cell ownership predicate used by sharded
    detection ([Shard.Engine]): called as [owns space region index] for
    every shadow cell a data access covers, before the cell (or its
    page) is materialized.  Cells it rejects are neither allocated nor
    checked; everything else — warp clocks, divergence stack, sync
    locations, barriers — still processes the full record stream, so a
    detector restricted by [owns] has bit-identical clock state to an
    unrestricted one and reports exactly the subset of races whose
    location it owns.  Omitted (the default): all cells are checked.
    @raise Invalid_argument if the layout's warp size exceeds
    {!Wire.max_lanes}: a record could not carry every lane. *)

val feed : t -> Simt.Event.t -> unit
(** Consume one simulator event: serialize it with {!Wire.write_event}
    into the detector's private staging record and process that record
    exactly as {!feed_record} would (without integrity checks — the
    record never crossed a transport).  Fences and kernel completion
    produce no record.  Single-producer: the staging record is shared,
    so call it from one domain at a time. *)

val feed_record : t -> values:int64 array -> Bytes.t -> pos:int -> unit
(** Consume one 280-byte wire record ({!Wire}) in place at offset
    [pos] of [buf], without decoding it into an event — the
    steady-state path is allocation-free.  The view is only read for
    the duration of the call (for queue rings: the slot may be
    released as soon as this returns).  [values] is the store/atomic
    lane-value side channel; pass [[||]] when absent (the same-value
    write filter then compares zeros).

    With [config.check_integrity] (the default) the record must have
    been {!Wire.seal}ed by its producer: magic, version, checksum, and
    sequence number are validated first, and any anomaly (corruption,
    loss, duplication) is counted in the
    [barracuda_transport_integrity_*] metrics, noted on the report
    (degrading the verdict), and absorbed without raising.
    Equivalent to {!feed_record_from} with [src = 0].
    @raise Invalid_argument on an unknown opcode in a valid record. *)

val feed_record_from :
  t -> src:int -> values:int64 array -> Bytes.t -> pos:int -> unit
(** Like {!feed_record}, naming the producer queue: sequence numbers
    are tracked per [src] (one expected-next counter per producer,
    [0 <= src < 64]; out-of-range sources skip the sequence check but
    keep the checksum check). *)

val report : t -> Report.t
val stats : t -> stats

val run :
  ?config:config ->
  ?max_steps:int ->
  machine:Simt.Machine.t ->
  Ptx.Ast.kernel ->
  int64 array ->
  t * Simt.Machine.result
(** Convenience: launch the kernel on [machine] with {!feed} attached
    to the event stream, so every event takes the product's wire-record
    path. *)
