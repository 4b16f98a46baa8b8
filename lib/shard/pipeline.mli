(** Sharded end-to-end detection: [Gpu_runtime.Session.run_stream]
    with the sharded sink ({!Stream.sink_of_engine}), which broadcasts
    each record to every shard's ring ({!Engine}).  The producer is the
    session core's, so instrumentation, origin remapping and wire
    serialization are the serial check's.  Verdicts are
    bitwise-identical to the serial sink on every trace, at every shard
    count; the test suite enforces this over the whole bug suite. *)

type config = {
  shards : int;
  ring_capacity : int;  (** records per shard ring *)
  prune : bool;  (** instrumentation pruning when no [inst] is given *)
  static_prune : bool;  (** static-analysis pruning when no [inst] is given *)
  detector : Barracuda.Detector.config;
  fault : Fault.Plan.t option;
      (** machine faults + shard-crash injection; transport faults are
          not applied on the sharded path *)
}

val default_config : config
(** [shards = 2], [ring_capacity = 4096], pruning on, default detector
    config, no faults. *)

type result = {
  report : Barracuda.Report.t;  (** merged, deterministic (see {!Merge}) *)
  detectors : Barracuda.Detector.t array;  (** per-shard, for stats *)
  machine_result : Simt.Machine.result;
  records : int;  (** the broadcast stream, counted once, not per shard *)
  detect_ns : int64;  (** busiest shard's time inside the detector *)
}

val run_sharded :
  ?config:config ->
  ?max_steps:int ->
  ?deadline_ns:int64 ->
  ?inst:Instrument.Pass.result ->
  machine:Simt.Machine.t ->
  Ptx.Ast.kernel ->
  int64 array ->
  result
(** @raise Engine.Shard_crashed if a shard consumer domain dies
    mid-job (fault injection or otherwise): a partial merge is never
    returned. *)
