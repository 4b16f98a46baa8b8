(** Sessions: the host-side lifecycle around kernels (§4.1), in two
    planes.

    {b Multi-launch sessions} ({!t}) model the deployed BARRACUDA
    living in the target process across kernel launches: device memory
    persists, each launch is instrumented and checked, and a
    [cudaDeviceReset] must wait until the log queues are fully drained
    before the backing memory is released, after which the runtime
    reinitializes on the next call.

    Launches are serialized (one stream): everything a launch did is
    ordered before the next launch begins, so each launch is checked
    with fresh clocks while device memory carries over — two launches
    never race with one another, only within themselves.

    {b Streaming sessions} ({!stream}) are the incremental core every
    frontend shares: a session is opened against a kernel, fed chunks
    of sealed wire records ({!Stream} cells) at arbitrary byte
    boundaries, checkpointed for a verdict-so-far, and closed for the
    final verdict.  The same {!sink} abstraction also drives batch
    execution ({!drive}/{!run_stream}): a batch check is just a
    streaming session whose producer is the simulator, so any chunking
    of a recorded stream reproduces the batch race set bitwise. *)

(** {1 Record sinks}

    A sink is one incremental consumer of sealed wire records — the
    seam between the streaming-session core and a detection backend.
    The serial backend ({!serial_sink}) feeds a single
    {!Barracuda.Detector} in place; the concurrent host
    ([Pipeline.parallel_sink]) hands records to one consumer domain per
    queue; the [shard] library's broadcast engine (kept as the
    benchmark's comparison point) feeds its SPSC rings.  Producers
    serialize a record directly into {!sink.stage} (at offset 0) and
    call {!sink.submit}, which seals it with the sink's own monotonic
    sequence number and ingests it — the same zero-copy discipline as
    the batch pipeline's ring slots. *)

type sink = {
  stage : Bytes.t;
      (** staging buffer, at least [Barracuda.Wire.size] bytes; the
          next record is written at offset 0 *)
  submit : values:int64 array -> sync:bool -> unit;
      (** seal the staged record and feed it; [sync] marks
          synchronization records for epoch accounting *)
  quiesce : unit -> unit;
      (** wait until every record submitted so far is fully detected —
          the epoch-aligned barrier behind checkpoints.  May raise the
          backend's failure exception. *)
  sink_report : max_reports:int -> Barracuda.Report.t;
      (** verdict over everything detected so far; call only when
          quiesced (or after [finish]) *)
  finish : unit -> unit;
      (** complete ingestion; raises if the backend failed *)
  abort : unit -> unit;  (** tear down without raising *)
  detect_ns : unit -> int64;
      (** cumulative detector time (final after [finish]) *)
  sink_records : unit -> int;  (** records ingested *)
}

val serial_sink :
  ?config:Barracuda.Detector.config ->
  ?fault:Fault.Plan.t ->
  layout:Vclock.Layout.t ->
  Ptx.Ast.kernel ->
  sink
(** The single-detector backend: [submit] seals and feeds the staged
    record synchronously via [Detector.feed_record_from]; [quiesce] is
    a no-op (nothing is in flight).  [fault] injects the plan's
    transport faults (flip, drop, duplicate, delay) between the seal
    and the feed, as one fault stream; [finish] feeds records still
    held by a delay.  When telemetry is enabled at creation, each feed
    is also recorded in the ["detect"] span. *)

(** {1 Batch execution as a session}

    {!drive} is the only producer: it executes a kernel on the
    simulator and serializes every logged event ({!Barracuda.Wire.write_event})
    into a sink as a wire record.  {!run_stream} is the only batch
    driver over it; every deployment choice is a {!sink}. *)

val drive :
  ?max_steps:int ->
  ?deadline_ns:int64 ->
  ?fault:Fault.Plan.t ->
  ?inst:Instrument.Pass.result ->
  ?capture:Buffer.t ->
  ?tee:(Simt.Event.t -> unit) ->
  machine:Simt.Machine.t ->
  sink ->
  Ptx.Ast.kernel ->
  int64 array ->
  Simt.Machine.result
(** Execute [kernel] (the instrumented version when [inst] is given,
    with origin remapping and logging-pruning applied; the original
    kernel with every event logged otherwise) and submit each record
    to [sink].  [fault]'s machine faults go to {!Simt.Machine.launch}.
    [capture] appends every submitted record as a sealed {!Stream}
    cell, values included — the recorder behind [check --record] and
    the chunk-invariance tests.  [tee] observes every event the sink
    receives, remapped to original instruction indices, plus fences
    and [Kernel_done] — the hook behind [check --dump-trace].  With
    telemetry enabled the machine's own time (launch minus callbacks)
    is recorded in the ["execute"] span.  On an exception the sink is
    aborted before the exception is re-raised; callers still own
    [finish]. *)

type stream_result = {
  sr_report : Barracuda.Report.t;
  sr_machine_result : Simt.Machine.result;
  sr_records : int;
  sr_detect_ns : int64;
}

val run_stream :
  ?sink:sink ->
  ?detector:Barracuda.Detector.config ->
  ?max_steps:int ->
  ?deadline_ns:int64 ->
  ?fault:Fault.Plan.t ->
  ?inst:Instrument.Pass.result ->
  ?capture:Buffer.t ->
  ?tee:(Simt.Event.t -> unit) ->
  machine:Simt.Machine.t ->
  Ptx.Ast.kernel ->
  int64 array ->
  stream_result
(** One-shot check: {!drive} into [sink], then finish.  [sink]
    defaults to {!serial_sink} built from [detector] and [fault]; a
    caller-built sink gets only the machine faults of [fault] (build
    the sink with its own fault options).  [detector.max_reports]
    bounds the report either way.  This is what every [barracuda
    check] flag, the service's check jobs, repair validation and the
    fault campaigns run. *)

(** {1 Multi-launch sessions} *)

type rollup = {
  r_kernel : string;  (** kernel name *)
  r_ns : int64;  (** monotonic launch duration *)
  r_records : int;  (** records shipped through the queues *)
  r_races : int;  (** distinct races reported *)
}
(** Per-launch telemetry rollup.  Durations use the monotonic clock
    and are collected unconditionally; when telemetry is enabled each
    launch additionally records a ["launch"] span and session counters
    in {!Telemetry.Registry.default}. *)

type t

val create :
  ?detector:Barracuda.Detector.config -> layout:Vclock.Layout.t -> unit -> t

val machine : t -> Simt.Machine.t
(** The device: persistent across launches until a reset. *)

val launch :
  ?max_steps:int -> t -> Ptx.Ast.kernel -> int64 array -> stream_result
(** Instrument (pruning on), execute and race-check one kernel through
    {!run_stream}. *)

val device_reset : t -> unit
(** Drain-and-reset: all records of prior launches are consumed (they
    already are — [launch] finishes its sink before returning,
    mirroring the delayed reset), device global memory is cleared, and the next
    launch runs against a reinitialized device. *)

val launches : t -> int
(** Launches since creation (not cleared by resets). *)

val resets : t -> int

val reports : t -> (string * Barracuda.Report.t) list
(** Per-launch reports, oldest first: (kernel name, report). *)

val rollups : t -> rollup list
(** Per-launch telemetry rollups, oldest first. *)

val total_races : t -> int

(** {1 Streaming sessions}

    The incremental lifecycle: open → feed chunks of sealed wire
    records → checkpoint (verdict-so-far) → close (final verdict).
    Chunks split cells at arbitrary byte boundaries; reassembly,
    integrity validation (checksum + sequence continuity, mirroring
    the detector's own transport tracking) and re-sealing happen here,
    so the backend always sees a contiguous intact stream and any
    chunking yields exactly the batch race set. *)

type stream

type progress = {
  p_records : int;  (** records accepted so far *)
  p_race_count : int;
  p_has_race : bool;
  p_degraded : bool;
      (** any transport anomaly absorbed (session- or detector-level) *)
  p_integrity : Barracuda.Report.integrity;
      (** session-level validation counts merged with the backend's *)
  p_errors : Barracuda.Report.error list;
  p_checkpoints : int;
  p_final : bool;  (** from {!close_stream}: ingestion is complete *)
}

val open_stream :
  ?sink:sink ->
  ?detector:Barracuda.Detector.config ->
  layout:Vclock.Layout.t ->
  Ptx.Ast.kernel ->
  stream
(** Open a streaming session.  Default backend: {!serial_sink}.
    Telemetry: the open-sessions gauge
    [barracuda_session_open_streams] rises until close/abort. *)

val feed_chunk : stream -> ?pos:int -> ?len:int -> string -> unit
(** Feed a chunk of stream bytes (any framing).  Corrupt records are
    counted and skipped; sequence gaps and stale records are counted —
    all surfaced through {!progress.p_integrity}/[p_degraded].
    @raise Stream.Framing if the bytes cannot be a cell sequence.
    @raise Invalid_argument on a closed stream. *)

val checkpoint : stream -> progress
(** Quiesce the sink (every accepted record fully detected) and
    return the
    verdict-so-far.  Observes the checkpoint-latency histogram
    [barracuda_session_checkpoint_ms] and updates the per-session
    throughput gauge [barracuda_session_records_per_sec]. *)

val close_stream : stream -> progress
(** Finish the sink and return the final verdict ([p_final = true]).
    Raises the backend's failure if detection died; the stream is then still open and must be {!abort_stream}ed. *)

val abort_stream : stream -> unit
(** Tear down without a verdict; never raises.  Idempotent, and safe
    after {!close_stream}. *)

val stream_records : stream -> int
val stream_detect_ns : stream -> int64

(** {1 Op-plane sessions}

    The same incremental lifecycle over abstract trace operations
    ({!Gtrace.Op}) instead of wire records: one operation at a time
    into the reference detector via [Reference.step], with a
    verdict-so-far available between feeds.  [Replay.run] and the
    predictive analysis' trace ingestion are thin drivers over this
    plane, so a replayed trace is judged by the same incremental core
    a live session is. *)

type ops

val open_ops :
  ?max_reports:int ->
  ?filter_same_value:bool ->
  layout:Vclock.Layout.t ->
  unit ->
  ops

val feed_op : ops -> Gtrace.Op.t -> unit
(** @raise Invalid_argument on a closed op-session. *)

val feed_ops : ops -> Gtrace.Op.t list -> unit

val ops_fed : ops -> int
(** Operations fed so far. *)

val ops_report : ops -> Barracuda.Report.t
(** Verdict-so-far; callable between feeds (the reference detector is
    synchronous, so nothing is in flight). *)

val close_ops : ops -> Barracuda.Report.t
(** Final verdict; further feeds raise. *)
