type config = {
  max_steps : int;
  max_report_strings : int;
  deadline_ms : int;
  job_shards : int;
      (* detector domains per check job; 1 = the serial pipeline *)
}

let default_config =
  {
    max_steps = 2_000_000;
    max_report_strings = 20;
    deadline_ms = 0;
    job_shards = 1;
  }

let default_layout =
  Vclock.Layout.make ~warp_size:32 ~threads_per_block:64 ~blocks:2

let resolve_args machine kernel specs =
  let nparams = List.length kernel.Ptx.Ast.params in
  let parse spec =
    match String.split_on_char ':' spec with
    | [ "alloc"; n ] -> (
        match int_of_string_opt n with
        | Some bytes when bytes >= 0 ->
            Int64.of_int (Simt.Machine.alloc_global machine bytes)
        | _ -> failwith (Printf.sprintf "bad argument spec %S" spec))
    | [ "int"; v ] -> (
        match Int64.of_string_opt v with
        | Some x -> x
        | None -> failwith (Printf.sprintf "bad argument spec %S" spec))
    | [ v ] -> (
        match Int64.of_string_opt v with
        | Some x -> x
        | None -> failwith (Printf.sprintf "bad argument spec %S" spec))
    | _ -> failwith (Printf.sprintf "bad argument spec %S" spec)
  in
  let given = List.map parse specs in
  let missing = nparams - List.length given in
  if missing < 0 then
    failwith
      (Printf.sprintf "kernel %s takes %d arguments, got %d"
         kernel.Ptx.Ast.kname nparams (List.length given));
  let fill =
    List.init missing (fun _ ->
        Int64.of_int (Simt.Machine.alloc_global machine 4096))
  in
  Array.of_list (given @ fill)

let layout_of (s : Protocol.submit) =
  match s.Protocol.layout with
  | None -> default_layout
  | Some (blocks, tpb, warp) ->
      Vclock.Layout.make ~warp_size:warp ~threads_per_block:tpb ~blocks

let m_static_fast =
  lazy
    (Telemetry.Registry.counter
       ~help:"Check jobs answered by the static analysis without execution"
       Telemetry.Registry.default "barracuda_service_static_fast_total")

let outcome_of_report ?(static = false) ~config ~cache_hit ~detect_ms report =
  let errors =
    List.filteri
      (fun i _ -> i < config.max_report_strings)
      (List.map
         (Format.asprintf "%a" Barracuda.Report.pp_error)
         (Barracuda.Report.errors report))
  in
  {
    Protocol.verdict =
      (if Barracuda.Report.has_race report then Protocol.Racy
       else Protocol.Race_free);
    races = Barracuda.Report.race_count report;
    errors;
    cache_hit;
    predicted = 0;
    confirmed = 0;
    degraded = Barracuda.Report.degraded report;
    static;
    repaired = false;
    fix = "";
    repair_tried = 0;
    detect_ms;
  }

let entry_for ~cache (s : Protocol.submit) =
  let key =
    Cache.key ~prune:s.Protocol.prune ~static:s.Protocol.static
      s.Protocol.payload
  in
  Cache.find_or_build cache key ~build:(fun () ->
      let kernel = Ptx.Parser.kernel_of_string s.Protocol.payload in
      let cfg = Cfg.Graph.of_kernel kernel in
      (* one analysis serves both the instrument pass's static tier and
         the entry's instant-answer verdicts *)
      let analysis = Static.Analysis.analyze kernel in
      let inst =
        Instrument.Pass.instrument ~prune:s.Protocol.prune
          ~static:s.Protocol.static ~analysis kernel
      in
      { Cache.kernel; cfg; inst; analysis })

(* The instant-answer path: a kernel the static analysis proves racy
   (for this launch layout) is answered without ever executing it.
   Race-free and unknown kernels still run — the analysis only
   certifies [Racy] on its own. *)
let static_result ~config ~cache_hit ~job ~layout entry
    (s : Protocol.submit) =
  if not s.Protocol.static then None
  else
    match Static.Analysis.report entry.Cache.analysis ~layout with
    | None -> None
    | Some report ->
        Telemetry.Metric.counter_incr (Lazy.force m_static_fast);
        Some
          (Protocol.Result
             {
               job;
               outcome =
                 outcome_of_report ~static:true ~config ~cache_hit
                   ~detect_ms:0.0 report;
               queue_ms = 0.0;
               run_ms = 0.0;
             })

let static_verdict ?(config = default_config) ~cache ~job
    (s : Protocol.submit) =
  match s.Protocol.kind with
  | Protocol.Predict | Protocol.Repair -> None
  | Protocol.Check -> (
      if not s.Protocol.static then None
      else
        (* Peek only — never parse or analyze here.  The probe runs on
           the caller's thread (the daemon's per-connection threads),
           so a cold kernel must take the queued path, where the
           scheduler's admission control bounds the heavy work and
           [run_check] both warms the cache and short-circuits
           statically itself. *)
        try
          match
            Cache.peek cache
              (Cache.key ~prune:s.Protocol.prune ~static:s.Protocol.static
                 s.Protocol.payload)
          with
          | None -> None
          | Some entry ->
              let layout = layout_of s in
              static_result ~config ~cache_hit:true ~job ~layout entry s
        with _ -> None)

let run_check ~config ~cache ~job (s : Protocol.submit) =
  let entry, cache_hit = entry_for ~cache s in
  let layout = layout_of s in
  match static_result ~config ~cache_hit ~job ~layout entry s with
  | Some result -> result
  | None ->
  let machine = Simt.Machine.create ~layout () in
  let args = resolve_args machine entry.Cache.kernel s.Protocol.args in
  let deadline_ns =
    if config.deadline_ms <= 0 then None
    else
      Some
        (Int64.add (Telemetry.Clock.now_ns ())
           (Int64.mul (Int64.of_int config.deadline_ms) 1_000_000L))
  in
  (* One driver for every job: the streaming-session core with the
     cached instrument pass (which already encodes the prune/static
     choices), so a daemon check job and a [Stream_open] session share
     one producer.  [job_shards > 1] only swaps the sink for the
     sharded one, with bitwise-identical verdicts. *)
  let sink =
    if config.job_shards <= 1 then None
    else
      Some
        (Shard.Stream.sink ~shards:config.job_shards ~layout
           entry.Cache.kernel)
  in
  let result =
    Gpu_runtime.Session.run_stream ?sink ~max_steps:config.max_steps
      ?deadline_ns ~inst:entry.Cache.inst ~machine entry.Cache.kernel args
  in
  let status =
    result.Gpu_runtime.Session.sr_machine_result.Simt.Machine.status
  and report = result.Gpu_runtime.Session.sr_report
  and detect_ns = result.Gpu_runtime.Session.sr_detect_ns in
  match status with
  | Simt.Machine.Max_steps n ->
      Protocol.Failed
        {
          job;
          code = "timeout";
          message =
            Printf.sprintf
              "kernel stopped after the %d-step budget (possible livelock)" n;
        }
  | Simt.Machine.Deadline n ->
      Protocol.Failed
        {
          job;
          code = "deadline";
          message =
            Printf.sprintf
              "kernel stopped at the %d ms wall-clock deadline after %d steps"
              config.deadline_ms n;
        }
  | Simt.Machine.Completed ->
      Protocol.Result
        {
          job;
          outcome =
            outcome_of_report ~config ~cache_hit
              ~detect_ms:(Int64.to_float detect_ns /. 1e6)
              report;
          queue_ms = 0.0;
          run_ms = 0.0;
        }

let run_predict ~config ~job (s : Protocol.submit) =
  let layout, ops = Gtrace.Serialize.of_string s.Protocol.payload in
  let a = Predict.Analysis.run ~layout ops in
  let errors =
    List.filteri
      (fun i _ -> i < config.max_report_strings)
      (List.filter_map
         (fun (p : Predict.Analysis.prediction) ->
           match p.Predict.Analysis.status with
           | Predict.Analysis.Observed -> None
           | st ->
               Some
                 (Format.asprintf "%s race predicted at %a"
                    (Predict.Analysis.status_string st)
                    Gtrace.Loc.pp p.Predict.Analysis.loc))
         a.Predict.Analysis.predictions)
  in
  Protocol.Result
    {
      job;
      outcome =
        {
          Protocol.verdict =
            (if Predict.Analysis.has_race a then Protocol.Racy
             else Protocol.Race_free);
          races = a.Predict.Analysis.observed_race_count;
          errors;
          cache_hit = false;
          predicted = Predict.Analysis.predicted_count a;
          confirmed = Predict.Analysis.confirmed_count a;
          degraded = false;
          static = false;
          repaired = false;
          fix = "";
          repair_tried = 0;
          detect_ms = 0.0;
        };
      queue_ms = 0.0;
      run_ms = 0.0;
    }

(* A repair job: diagnose, search the candidate-fix space, validate
   through the unchanged detector.  The parse/CFG/analysis artifacts
   come from the same source-digest cache as check jobs; the verdict
   describes the post-repair state ([Race_free] + [repaired] = fixed,
   [Racy] = unfixable) so verdict parity with the one-shot
   [barracuda repair] command holds by construction. *)
let run_repair ~config ~cache ~job (s : Protocol.submit) =
  let entry, cache_hit = entry_for ~cache s in
  let layout = layout_of s in
  let kernel = entry.Cache.kernel in
  let setup machine = resolve_args machine kernel s.Protocol.args in
  let rconfig =
    {
      Repair.Engine.default_config with
      Repair.Engine.max_steps = config.max_steps;
      shards = max 2 config.job_shards;
    }
  in
  let t0 = Telemetry.Clock.now_ns () in
  let r = Repair.Engine.repair ~config:rconfig ~layout ~setup kernel in
  let detect_ms =
    Int64.to_float (Int64.sub (Telemetry.Clock.now_ns ()) t0) /. 1e6
  in
  let d = r.Repair.Engine.diagnosis in
  let pair_errors =
    List.filteri
      (fun i _ -> i < config.max_report_strings)
      (List.map
         (fun (a, b) -> Printf.sprintf "racy pair: insn %d vs insn %d" a b)
         d.Repair.Localize.pairs)
  in
  let verdict, repaired, fix, errors =
    match r.Repair.Engine.verdict with
    | Repair.Engine.Already_clean -> (Protocol.Race_free, false, "", [])
    | Repair.Engine.Fixed f ->
        ( Protocol.Race_free,
          true,
          f.Repair.Engine.description,
          pair_errors )
    | Repair.Engine.Unfixable -> (Protocol.Racy, false, "", pair_errors)
  in
  Protocol.Result
    {
      job;
      outcome =
        {
          Protocol.verdict;
          races = List.length d.Repair.Localize.pairs;
          errors;
          cache_hit;
          predicted = 0;
          confirmed = 0;
          degraded = false;
          static = false;
          repaired;
          fix;
          repair_tried = r.Repair.Engine.candidates_tried;
          detect_ms;
        };
      queue_ms = 0.0;
      run_ms = 0.0;
    }

(* Open a streaming session for a daemon stream job.  Artifacts come
   from the same source-digest cache as batch checks, and [job_shards]
   selects the backend exactly as [run_check] does, so a streamed
   trace's verdict is bitwise the one a batch submission of the same
   records would produce. *)
let stream_open ?(config = default_config) ~cache (s : Protocol.submit) =
  let entry, _ = entry_for ~cache s in
  let layout = layout_of s in
  if config.job_shards <= 1 then
    Gpu_runtime.Session.open_stream ~layout entry.Cache.kernel
  else
    let sink =
      Shard.Stream.sink ~shards:config.job_shards ~layout entry.Cache.kernel
    in
    Gpu_runtime.Session.open_stream ~sink ~layout entry.Cache.kernel

let error_response ~job exn =
  let failed code message = Protocol.Failed { job; code; message } in
  match exn with
  | Ptx.Parser.Error { line; message } ->
      failed "parse_error" (Printf.sprintf "PTX line %d: %s" line message)
  | Gtrace.Serialize.Parse_error { line; message } ->
      failed "parse_error" (Printf.sprintf "trace line %d: %s" line message)
  | Gpu_runtime.Stream.Framing message ->
      failed "bad_request" (Printf.sprintf "stream framing: %s" message)
  | Shard.Engine.Shard_crashed i ->
      (* never degrade to a partial merge: a dead shard domain means
         the verdict is unrecoverable for this attempt *)
      failed "shard_crashed" (Printf.sprintf "shard %d consumer domain died" i)
  | Failure message -> failed "bad_request" message
  | Invalid_argument message -> failed "exec_error" message
  | Stack_overflow -> failed "exec_error" "stack overflow"
  | exn -> failed "exec_error" (Printexc.to_string exn)

let run ?(config = default_config) ~cache ~job (s : Protocol.submit) =
  try
    match s.Protocol.kind with
    | Protocol.Check -> run_check ~config ~cache ~job s
    | Protocol.Predict -> run_predict ~config ~job s
    | Protocol.Repair -> run_repair ~config ~cache ~job s
  with exn -> error_response ~job exn
