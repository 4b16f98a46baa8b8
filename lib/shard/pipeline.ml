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

(* Field-wise sum of the per-shard detector statistics. *)
let sum_stats (a : Barracuda.Detector.stats) (b : Barracuda.Detector.stats) =
  Barracuda.Detector.
    {
      accesses_checked = a.accesses_checked + b.accesses_checked;
      records_processed = a.records_processed + b.records_processed;
      ptvc_converged = a.ptvc_converged + b.ptvc_converged;
      ptvc_diverged = a.ptvc_diverged + b.ptvc_diverged;
      ptvc_nested = a.ptvc_nested + b.ptvc_nested;
      ptvc_sparse = a.ptvc_sparse + b.ptvc_sparse;
      shadow_pages = a.shadow_pages + b.shadow_pages;
      shadow_cells = a.shadow_cells + b.shadow_cells;
      shadow_bytes = a.shadow_bytes + b.shadow_bytes;
      sync_locations = a.sync_locations + b.sync_locations;
      ptvc_bytes = a.ptvc_bytes + b.ptvc_bytes;
      full_vc_bytes = a.full_vc_bytes + b.full_vc_bytes;
    }

(* The engine as a session sink: the staging buffer is the engine's
   scratch record, so the producer serializes once and broadcasts in
   place; [quiesce] waits for every shard ring to drain. *)
let sink_of_engine engine =
  {
    Gpu_runtime.Session.stage = Engine.scratch engine;
    submit = (fun ~values ~sync -> Engine.broadcast engine ~values ~sync);
    quiesce = (fun () -> Engine.quiesce engine);
    sink_report = (fun ~max_reports -> Engine.report engine ~max_reports);
    finish = (fun () -> Engine.finish engine);
    abort = (fun () -> Engine.abort engine);
    detect_ns = (fun () -> Engine.detect_ns engine);
    sink_records = (fun () -> Engine.records engine);
    sink_stats =
      (fun () ->
        (* an engine has at least one shard *)
        match Array.to_list (Engine.detectors engine) with
        | d :: rest ->
            List.fold_left
              (fun acc d -> sum_stats acc (Barracuda.Detector.stats d))
              (Barracuda.Detector.stats d) rest
        | [] -> assert false);
  }

(* [Session.run_stream] over the sharded sink; the engine is kept to
   expose the per-shard detectors for stats.  [drive]'s
   abort-on-exception covers a [Shard_crashed] raised from
   [broadcast], so the consumer domains are always joined before the
   exception propagates. *)
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
    Gpu_runtime.Session.run_stream ~sink:(sink_of_engine engine)
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
