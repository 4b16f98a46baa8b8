type config = {
  shards : int;
  ring_capacity : int;
  prune : bool;
  static_prune : bool;
  detector : Barracuda.Detector.config;
  fault : Fault.Plan.t option;
}

let default_config =
  {
    shards = 2;
    ring_capacity = 4096;
    prune = true;
    static_prune = true;
    detector = Barracuda.Detector.default_config;
    fault = None;
  }

type result = {
  report : Barracuda.Report.t;
  detectors : Barracuda.Detector.t array;
  machine_result : Simt.Machine.result;
  records : int;
  detect_ns : int64;
}

(* [Session.run_stream] over the sharded sink.  The engine is built
   here rather than through [Stream.sink] only to keep the per-shard
   detectors for stats; [drive]'s abort-on-exception covers a
   [Shard_crashed] raised from [broadcast], so the consumer domains are
   always joined before the exception propagates. *)
let run_sharded ?(config = default_config) ?max_steps ?deadline_ns ?inst
    ~machine kernel args =
  let inst =
    match inst with
    | Some i -> i
    | None ->
        Instrument.Pass.instrument ~prune:config.prune
          ~static:config.static_prune kernel
  in
  let engine =
    Engine.create ~ring_capacity:config.ring_capacity ?fault:config.fault
      ~config:config.detector ~layout:(Simt.Machine.layout machine)
      ~shards:config.shards kernel
  in
  let r =
    Gpu_runtime.Session.run_stream ~sink:(Stream.sink_of_engine engine)
      ~detector:config.detector ?max_steps ?deadline_ns ?fault:config.fault
      ~inst ~machine kernel args
  in
  {
    report = r.Gpu_runtime.Session.sr_report;
    detectors = Engine.detectors engine;
    machine_result = r.Gpu_runtime.Session.sr_machine_result;
    records = r.Gpu_runtime.Session.sr_records;
    detect_ns = r.Gpu_runtime.Session.sr_detect_ns;
  }
