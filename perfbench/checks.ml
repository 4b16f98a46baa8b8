(* The one-shot check of the [stencil] workload and the layer probes: a
   closed loop of one thread taking printed PTX to a verdict exactly as
   [barracuda check] does (Parser.kernel_of_string, a fresh machine with
   the kernel's inputs, Session.run_stream with the default detector
   config and no instrumentation). *)

open Inputs

let detector = Barracuda.Detector.default_config

let inputs it =
  let machine = Simt.Machine.create ~layout:it.layout () in
  (machine, it.setup machine)

let completed (mr : Simt.Machine.result) =
  mr.Simt.Machine.status = Simt.Machine.Completed

(* The product path, untraced.  Returns (records, verdict). *)
let check it =
  let kernel = Ptx.Parser.kernel_of_string it.ptx in
  let machine, args = inputs it in
  let r = Gpu_runtime.Session.run_stream ~detector ~machine kernel args in
  let verdict =
    if not (completed r.Gpu_runtime.Session.sr_machine_result) then
      Error (it.name ^ ": kernel did not complete")
    else judge it r.Gpu_runtime.Session.sr_report
  in
  (r.Gpu_runtime.Session.sr_records, verdict)

(* The same calls run_stream makes (serial_sink, drive, finish +
   sink_report), composed here so each boundary gets a span; the sink's
   [submit] is wrapped into one aggregate span per check. *)
let traced_check led it =
  Ledger.with_span led ~layer:"bench" "check" (fun () ->
      let kernel =
        Ledger.with_span led ~layer:"ptx" "ptx.parse" (fun () ->
            Ptx.Parser.kernel_of_string it.ptx)
      in
      let machine, args =
        Ledger.with_span led ~layer:"simt" "simt.inputs" (fun () -> inputs it)
      in
      let sink =
        Ledger.with_span led ~layer:"barracuda" "barracuda.sink" (fun () ->
            Gpu_runtime.Session.serial_sink ~config:detector ~layout:it.layout
              kernel)
      in
      let mr =
        Ledger.with_span led ~layer:"gpu_runtime" "gpu_runtime.drive"
          (fun () ->
            let agg = Ledger.aggregate led ~layer:"barracuda" "barracuda.submit" in
            let submit = sink.Gpu_runtime.Session.submit in
            let wrapped =
              {
                sink with
                Gpu_runtime.Session.submit =
                  (fun ~values ~sync ->
                    Ledger.timed agg (fun () -> submit ~values ~sync));
              }
            in
            Gpu_runtime.Session.drive ~machine wrapped kernel args)
      in
      let report =
        Ledger.with_span led ~layer:"barracuda" "barracuda.report" (fun () ->
            sink.Gpu_runtime.Session.finish ();
            sink.Gpu_runtime.Session.sink_report
              ~max_reports:detector.Barracuda.Detector.max_reports)
      in
      let records = sink.Gpu_runtime.Session.sink_records () in
      Ledger.with_span led ~layer:"bench" "bench.verify" (fun () ->
          if not (completed mr) then
            (records, Error (it.name ^ ": kernel did not complete"))
          else (records, judge it report)))

(* ---- the closed loop ----------------------------------------------- *)

(* One untimed warm-up round over [items], then rounds over them in a
   fresh seeded order each time for [seconds]; [setup] is repeated
   between rounds (see [Util.rounds]).  Every check is judged into
   [tally].  Returns the records of one round and the timed rounds. *)
let run_loop ?led ?setup ~rng ~tally ~seconds items =
  let op = ref 0 in
  let one it =
    (match led with Some led -> Ledger.set_op led !op | None -> ());
    incr op;
    let t0 = Util.now_ns () in
    let records, verdict =
      match led with None -> check it | Some led -> traced_check led it
    in
    let ms = Util.ms_since t0 in
    (match verdict with
    | Ok () -> Util.record tally true ""
    | Error why -> Util.record tally false why);
    (records, ms)
  in
  let records = Array.fold_left (fun acc it -> acc + fst (one it)) 0 items in
  let rounds =
    Util.rounds ?setup ~seconds (fun () ->
        Array.to_list (Util.shuffle rng items) |> List.map (fun it -> snd (one it)))
  in
  (records, rounds)

(* ---- per-layer figures -------------------------------------------- *)

(* The detector's figures from the wrapped [submit] spans of a ledger
   over [ops] traced checks or replays: records and submit time per
   operation, time and minor words per record. *)
let submit_metrics led ~ops =
  let submit_ms, submits, submit_words = Ledger.total led "barracuda.submit" in
  let per_record x = x /. float_of_int (max 1 submits) in
  [
    Util.metric "gpu_runtime.records" "count" (float_of_int submits /. float_of_int ops);
    Util.metric "barracuda.submit_ms" "ms" (submit_ms /. float_of_int ops);
    Util.metric "barracuda.ns_per_record" "ns" (1e6 *. per_record submit_ms);
    Util.metric "barracuda.minor_words_per_record" "words" (per_record submit_words);
  ]

(* Per-check figures from a ledger over [ops] traced checks. *)
let layer_metrics led ~ops =
  let per_op name =
    let ms, _, _ = Ledger.total led name in
    ms /. float_of_int ops
  in
  [
    Util.metric "ptx.parse_ms" "ms" (per_op "ptx.parse");
    Util.metric "gpu_runtime.drive_self_ms" "ms"
      (per_op "gpu_runtime.drive" -. per_op "barracuda.submit");
    Util.metric "barracuda.report_ms" "ms" (per_op "barracuda.report");
  ]
  @ submit_metrics led ~ops

(* Native SIMT: the same kernels and inputs launched with no sink.
   Returns mean (ms, warp instructions, minor words) per check, each
   kernel's time the median of [reps]. *)
let native_simt ~reps items =
  let per =
    Array.map
      (fun it ->
        let kernel = Ptx.Parser.kernel_of_string it.ptx in
        let runs =
          List.init reps (fun _ ->
              let machine, args = inputs it in
              let w0 = Util.minor_words () in
              let t0 = Util.now_ns () in
              let mr = Simt.Machine.launch machine kernel args in
              let ms = Util.ms_since t0 in
              (ms, mr.Simt.Machine.dyn_instructions, Util.minor_delta w0))
        in
        let ms = Util.median (List.map (fun (ms, _, _) -> ms) runs) in
        let _, insns, words = List.hd runs in
        (ms, insns, words))
      items
  in
  let n = float_of_int (Array.length per) in
  let sum f = Array.fold_left (fun acc x -> acc +. f x) 0.0 per in
  ( sum (fun (ms, _, _) -> ms) /. n,
    sum (fun (_, i, _) -> float_of_int i) /. n,
    sum (fun (_, _, w) -> w) /. n )

(* Detector counters over one untimed round [f] of [ops] operations with
   telemetry switched on: epoch fast-path answers per thread-level access
   check, and full vector-clock scans per operation. *)
let detector_counters ~ops f =
  let reg = Telemetry.Registry.default in
  let c name = float_of_int (Telemetry.Registry.find_counter reg name) in
  Telemetry.Registry.set_enabled true;
  Telemetry.Registry.reset reg;
  f ();
  let fast = c "barracuda_detector_epoch_fast_total" in
  let checks = c "barracuda_detector_checks_total" in
  let full = c "barracuda_detector_vc_full_total" in
  Telemetry.Registry.set_enabled false;
  Telemetry.Registry.reset reg;
  ((if checks > 0.0 then fast /. checks else 0.0), full /. float_of_int ops)

(* The shard gate: serial vs 2-shard checks of one kernel, with the same
   instrumentation pass on both sides, interleaved. *)
let shard_gate ~reps it =
  let kernel = Ptx.Parser.kernel_of_string it.ptx in
  let inst = Instrument.Pass.instrument ~prune:true ~static:true kernel in
  let serial () =
    let machine, args = inputs it in
    let t0 = Util.now_ns () in
    let r = Gpu_runtime.Session.run_stream ~inst ~machine kernel args in
    (Util.ms_since t0, Barracuda.Report.race_count r.Gpu_runtime.Session.sr_report)
  in
  let sharded () =
    let machine, args = inputs it in
    let t0 = Util.now_ns () in
    let config = { Shard.Pipeline.default_config with shards = 2 } in
    let r = Shard.Pipeline.run_sharded ~config ~inst ~machine kernel args in
    (Util.ms_since t0, Barracuda.Report.race_count r.Shard.Pipeline.report)
  in
  let pairs = List.init reps (fun _ -> (serial (), sharded ())) in
  let s = List.map (fun ((ms, _), _) -> ms) pairs in
  let p = List.map (fun (_, (ms, _)) -> ms) pairs in
  let agree = List.for_all (fun ((_, a), (_, b)) -> a = b) pairs in
  let s1, s2, s3 = Util.quartiles s and p1, p2, p3 = Util.quartiles p in
  let overlap = not (p3 < s1 || s3 < p1) in
  Printf.printf
    "  shard gate (%s, %d reps each): serial %.1f ms [%.1f, %.1f], 2 shards \
     %.1f ms [%.1f, %.1f] -> speedup %.3f; quartile ranges %s; race counts %s\n"
    it.name reps s2 s1 s3 p2 p1 p3 (s2 /. p2)
    (if overlap then "OVERLAP (no resolved difference)" else "do not overlap")
    (if agree then "agree" else "DISAGREE");
  (s2, p2, s2 /. p2, overlap, agree)
