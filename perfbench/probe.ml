(* Layer probes for the traced run: each library called directly, one at
   a time, on the workload's own kernels.  A workload's traced loop
   reaches only some layers; these probes give every per-layer figure a
   measurement on every workload, and the loop's own figures take
   precedence where both exist. *)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

(* The kernels' cost in every library but service: parse, native SIMT,
   one-shot checks (traced once, timed untraced), detector counters,
   capture and chunked replay, the instrument pass and static analysis
   (a daemon cache miss), and the shard gate on the kernel with the most
   records.  The traced checks' verdicts and the shard gate's race-count
   agreement are judged into [tally]. *)
let layers ~tally (items : Inputs.item array) =
  let ops = Array.length items in
  let n = float_of_int ops in
  let exec_ms, insns, exec_words = Checks.native_simt ~reps:3 items in
  let check_ms =
    mean
      (Array.to_list
         (Array.map
            (fun it ->
              fst (Util.timed_median 3 (fun () -> ignore (Checks.check it))) *. 1000.0)
            items))
  in
  let led = Ledger.create () in
  Array.iteri
    (fun i it ->
      Ledger.set_op led i;
      match snd (Checks.traced_check led it) with
      | Ok () -> Util.record tally true ""
      | Error why -> Util.record tally false why)
    items;
  let fast_ratio, vc_full =
    Checks.detector_counters ~ops (fun () ->
        Array.iter (fun it -> ignore (Checks.check it)) items)
  in
  let captures = Array.map Replay_wl.capture items in
  let sled = Ledger.create () in
  Array.iter (fun c -> ignore (Replay_wl.traced_replay sled c)) captures;
  let kernels = Array.map (fun c -> c.Replay_wl.kernel) captures in
  let pass_s, insts =
    Util.timed_median 3 (fun () ->
        Array.map (fun k -> Instrument.Pass.instrument ~prune:true ~static:true k) kernels)
  in
  let analyze_s, _ =
    Util.timed_median 3 (fun () -> Array.map Static.Analysis.analyze kernels)
  in
  let mean_stat f =
    Array.fold_left
      (fun acc (r : Instrument.Pass.result) ->
        acc +. float_of_int (f r.Instrument.Pass.stats))
      0.0 insts
    /. n
  in
  let largest =
    Array.fold_left
      (fun best c -> if c.Replay_wl.records > best.Replay_wl.records then c else best)
      captures.(0) captures
  in
  let serial, sharded, speedup, overlap, agree =
    Checks.shard_gate ~reps:5 largest.Replay_wl.item
  in
  Util.record tally agree "shard gate: race counts differ";
  Checks.layer_metrics led ~ops
  @ Replay_wl.layer_metrics sled ~ops
  @ [
      Util.metric "simt.execute_ms" "ms" exec_ms;
      Util.metric "simt.warp_insns" "count" insns;
      Util.metric "simt.minor_words_per_insn" "words" (exec_words /. insns);
      Util.metric "barracuda.epoch_fast_ratio" "ratio" fast_ratio;
      Util.metric "barracuda.vc_full" "count" vc_full;
      Util.metric "check_ms" "ms" check_ms;
      Util.metric "overhead_x" "x" (check_ms /. exec_ms);
      Util.metric "instrument.pass_ms" "ms" (1000.0 *. pass_s /. n);
      Util.metric "instrument.logged" "count" (mean_stat Instrument.Stats.instrumented);
      Util.metric "instrument.pruned_block" "count"
        (mean_stat (fun st -> st.Instrument.Stats.pruned_block));
      Util.metric "instrument.pruned_static" "count"
        (mean_stat (fun st -> st.Instrument.Stats.pruned_static));
      Util.metric "static.analyze_ms" "ms" (1000.0 *. analyze_s /. n);
      Util.metric "shard.serial_ms" "ms" serial;
      Util.metric "shard.sharded2_ms" "ms" sharded;
      Util.metric "shard.speedup_2" "x" speedup
        ~note:(if overlap then "quartiles overlap" else "quartiles apart");
    ]
