(** Sessions: the host-side lifecycle around a kernel (§4.1).

    {b Streaming sessions} ({!stream}) are the incremental core every
    frontend shares: a session is opened against a kernel, fed chunks
    of sealed wire records ({!Stream} cells) at arbitrary byte
    boundaries, checkpointed for a verdict-so-far, and closed for the
    final verdict.  The same {!sink} abstraction also drives batch
    execution ({!drive}/{!run_stream}): a batch check is just a
    streaming session whose producer is the simulator, so any chunking
    of a recorded stream reproduces the batch race set bitwise.

    A program of several launches calls {!run_stream} once per launch
    on one persistent {!Simt.Machine.t}: device memory carries over,
    each launch is checked with fresh clocks (launches on one stream
    are ordered, so they never race with one another), and a device
    reset is a fresh machine. *)

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
  sink_stats : unit -> Barracuda.Detector.stats;
      (** detector statistics; call only when quiesced (or after
          [finish]).  A backend with several detectors sums them field
          by field. *)
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
  sr_stats : Barracuda.Detector.stats;  (** the sink's [sink_stats] *)
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
    bounds the report either way.  This is the one driver behind every
    kernel verdict: every [barracuda check] flag, the service's check
    jobs, repair validation, the fault campaigns, the bug-suite score,
    [table1] and the warp-size sweep. *)

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
