(* The metric sets and the result line.

   Every run prints every end-to-end metric (untraced) or every
   per-layer metric (traced), so each workload maps each name onto its
   own unit of work; README.md tabulates the mapping. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("checks_per_s", "1/s");
    ("records_per_s", "1/s");
    ("chunk_verdict_p50_ms", "ms");
    ("chunk_verdict_tail_ms", "ms");
    ("job_p50_ms.light", "ms");
    ("job_tail_ms.light", "ms");
    ("job_p50_ms.heavy", "ms");
    ("job_tail_ms.heavy", "ms");
    ("max_jobs_per_s", "1/s");
    ("ok_share", "ratio");
    ("peak_heap_mb", "MiB");
  ]

let per_layer =
  [
    ("ptx.parse_ms", "ms");
    ("simt.execute_ms", "ms");
    ("simt.warp_insns", "count");
    ("simt.minor_words_per_insn", "words");
    ("gpu_runtime.drive_self_ms", "ms");
    ("gpu_runtime.records", "count");
    ("gpu_runtime.reassembly_ms", "ms");
    ("gpu_runtime.checkpoint_ms", "ms");
    ("barracuda.submit_ms", "ms");
    ("barracuda.ns_per_record", "ns");
    ("barracuda.minor_words_per_record", "words");
    ("barracuda.epoch_fast_ratio", "ratio");
    ("barracuda.vc_full", "count");
    ("barracuda.report_ms", "ms");
    ("instrument.pass_ms", "ms");
    ("instrument.logged", "count");
    ("instrument.pruned_block", "count");
    ("instrument.pruned_static", "count");
    ("static.analyze_ms", "ms");
    ("service.static_fast", "count");
    ("service.queue_ms.p50", "ms");
    ("service.queue_ms.tail", "ms");
    ("service.run_ms.p50", "ms");
    ("service.run_ms.tail", "ms");
    ("service.detect_ms.p50", "ms");
    ("service.detect_ms.tail", "ms");
    ("service.overhead_ms", "ms");
    ("service.cache_hit_ratio", "ratio");
    ("service.rejects", "count");
    ("service.race_locations_lost", "count");
    ("daemon.gen_late_ms", "ms");
    ("shard.serial_ms", "ms");
    ("shard.sharded2_ms", "ms");
    ("shard.speedup_2", "x");
    ("check_ms", "ms");
    ("overhead_x", "x");
    ("failed_share", "ratio");
    ("trace.unattributed_share", "ratio");
    ("trace.overhead", "x");
  ]

(* Latency p50 and tail, with the tail's percentile and sample count
   noted. *)
let latency ~p50 ~tail xs =
  let v, pct, n = Util.tail xs in
  [
    Util.metric p50 "ms" (Util.median xs) ~note:(Printf.sprintf "n=%d" n);
    Util.metric tail "ms" v ~note:(Printf.sprintf "p%.2f of n=%d" pct n);
  ]

(* A one-thread closed loop has no offered rate: every latency metric
   is the unqueued operation latency (on replay, the chunk verdict). *)
let unqueued_latencies xs =
  List.concat_map
    (fun (p50, tail) -> latency ~p50 ~tail xs)
    [
      ("chunk_verdict_p50_ms", "chunk_verdict_tail_ms");
      ("job_p50_ms.light", "job_tail_ms.light");
      ("job_p50_ms.heavy", "job_tail_ms.heavy");
    ]

let ok_share (t : Util.tally) =
  Util.metric "ok_share" "ratio"
    (float_of_int (t.Util.attempted - t.Util.failed)
    /. float_of_int (max 1 t.Util.attempted))
    ~note:(Printf.sprintf "failed_share %.4f = %d/%d"
             (float_of_int t.Util.failed /. float_of_int (max 1 t.Util.attempted))
             t.Util.failed t.Util.attempted)

let failed_share (t : Util.tally) =
  Util.metric "failed_share" "ratio"
    (float_of_int t.Util.failed /. float_of_int (max 1 t.Util.attempted))

(* Fill the requested set: every name exactly once, in order, from its
   first occurrence in [ms]. *)
let complete ~spec (ms : Util.metric list) =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.Util.name = name) ms with
      | Some m -> { m with Util.unit_ }
      | None -> failwith ("metric not measured: " ^ name))
    spec

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print (r : Util.result) =
  List.iter
    (fun m ->
      Printf.printf "%-36s %16.6f %-6s %s\n" m.Util.name m.Util.value m.Util.unit_
        m.Util.note)
    r.Util.metrics;
  let metrics =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Util.name
             (number m.Util.value) m.Util.unit_)
         r.Util.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.Util.correct r.Util.attempted r.Util.failed metrics
