(* The [replay] workload: captured wire streams replayed through the
   streaming-session core (open_stream -> feed_chunk in fixed 64 KiB
   chunks, a checkpoint after each -> close_stream), the path behind
   [barracuda stream] and daemon stream sessions.  No parse, no SIMT. *)

let chunk_bytes = 65536

type capture = {
  item : Inputs.item;
  kernel : Ptx.Ast.kernel;
  bytes : string;  (** sealed cells, no file header *)
  records : int;
  races : int;  (** the capturing batch run's verdict *)
  racy : bool;
}

(* One kernel's wire stream, captured with run_stream ~capture (the
   check --record recorder), with the batch run's verdict. *)
let capture (it : Inputs.item) =
  let kernel = Ptx.Parser.kernel_of_string it.Inputs.ptx in
  let machine, args = Checks.inputs it in
  let buf = Buffer.create 65536 in
  let r =
    Gpu_runtime.Session.run_stream ~detector:Checks.detector ~capture:buf ~machine
      kernel args
  in
  let report = r.Gpu_runtime.Session.sr_report in
  {
    item = it;
    kernel;
    bytes = Buffer.contents buf;
    records = r.Gpu_runtime.Session.sr_records;
    races = Barracuda.Report.race_count report;
    racy = Barracuda.Report.has_race report;
  }

(* Set-up: generate and print the kernels, then capture each one's
   stream. *)
let build ~seed () =
  let rng = Random.State.make [| seed |] in
  let stencil =
    Inputs.stencil_item rng ~blocks:Oneshot.stencil_blocks
      ~steps:Oneshot.stencil_steps ~k:Oneshot.stencil_races
  in
  let racy_roster =
    List.filter
      (fun (it : Inputs.item) ->
        match it.Inputs.oracle with
        | Inputs.Case c -> c.Bugsuite.Case.verdict = Bugsuite.Case.Racy
        | Inputs.Table1 w ->
            w.Workloads.Workload.expected <> Workloads.Workload.Race_free
        | Inputs.Racy_words _ -> true
        | Inputs.Racy racy -> racy)
      (Inputs.roster_items ())
  in
  let items = stencil :: racy_roster in
  Inputs.print_items items;
  Array.of_list (List.map capture items)

(* The (pos, len) of each fixed-size chunk of a capture. *)
let chunks c =
  let len = String.length c.bytes in
  List.init ((len + chunk_bytes - 1) / chunk_bytes) (fun i ->
      let pos = i * chunk_bytes in
      (pos, min chunk_bytes (len - pos)))

(* Whether a replay's final progress is the batch run's verdict. *)
let agrees c (p : Gpu_runtime.Session.progress) =
  p.Gpu_runtime.Session.p_race_count = c.races
  && p.Gpu_runtime.Session.p_has_race = c.racy
  && p.Gpu_runtime.Session.p_records = c.records

(* Replay one capture; returns the per-chunk verdict latencies (ms) and
   the final verdict's agreement with the batch run. *)
let replay c =
  let st =
    Gpu_runtime.Session.open_stream ~detector:Checks.detector
      ~layout:c.item.Inputs.layout c.kernel
  in
  let lats =
    List.map
      (fun (pos, len) ->
        let t0 = Util.now_ns () in
        Gpu_runtime.Session.feed_chunk st ~pos ~len c.bytes;
        ignore (Gpu_runtime.Session.checkpoint st);
        Util.ms_since t0)
      (chunks c)
  in
  (lats, agrees c (Gpu_runtime.Session.close_stream st))

(* The same calls, each in a span.  The stream gets the serial sink
   open_stream would build for itself, from the same kernel, with its
   [submit] wrapped into one aggregate span per chunk. *)
let traced_replay led c =
  let span name f = Ledger.with_span led ~layer:"gpu_runtime" name f in
  Ledger.with_span led ~layer:"bench" "stream" (fun () ->
      let agg = ref None in
      let st =
        span "gpu_runtime.open_stream" (fun () ->
            let sink =
              Gpu_runtime.Session.serial_sink ~config:Checks.detector
                ~layout:c.item.Inputs.layout c.kernel
            in
            let submit = sink.Gpu_runtime.Session.submit in
            let sink =
              {
                sink with
                Gpu_runtime.Session.submit =
                  (fun ~values ~sync ->
                    Ledger.timed (Option.get !agg) (fun () -> submit ~values ~sync));
              }
            in
            Gpu_runtime.Session.open_stream ~sink ~detector:Checks.detector
              ~layout:c.item.Inputs.layout c.kernel)
      in
      let lats =
        List.map
          (fun (pos, len) ->
            let t0 = Util.now_ns () in
            span "gpu_runtime.feed_chunk" (fun () ->
                agg := Some (Ledger.aggregate led ~layer:"barracuda" "barracuda.submit");
                Gpu_runtime.Session.feed_chunk st ~pos ~len c.bytes);
            span "gpu_runtime.checkpoint" (fun () ->
                ignore (Gpu_runtime.Session.checkpoint st));
            Util.ms_since t0)
          (chunks c)
      in
      let p = span "gpu_runtime.close_stream" (fun () -> Gpu_runtime.Session.close_stream st) in
      (lats, agrees c p))

(* Per-stream figures from a ledger over [ops] traced replays. *)
let layer_metrics led ~ops =
  let submit_ms, _, _ = Ledger.total led "barracuda.submit" in
  let feed_ms, _, _ = Ledger.total led "gpu_runtime.feed_chunk" in
  let ckpt_ms, ckpts, _ = Ledger.total led "gpu_runtime.checkpoint" in
  let per_chunk x = x /. float_of_int (max 1 ckpts) in
  [
    Util.metric "gpu_runtime.reassembly_ms" "ms" (per_chunk (feed_ms -. submit_ms));
    Util.metric "gpu_runtime.checkpoint_ms" "ms" (per_chunk ckpt_ms);
  ]
  @ Checks.submit_metrics led ~ops

(* Rounds over all captures in a fresh seeded order, after one untimed
   warm-up round; a round's latencies are its chunk verdicts. *)
let run_loop ?led ?setup ~rng ~tally ~seconds captures =
  let op = ref 0 in
  let one c =
    (match led with Some led -> Ledger.set_op led !op | None -> ());
    incr op;
    let lats, ok =
      match led with None -> replay c | Some led -> traced_replay led c
    in
    Util.record tally ok (c.item.Inputs.name ^ ": replayed verdict differs from batch");
    lats
  in
  Array.iter (fun c -> ignore (one c)) captures;
  (* set-up (every capture) costs about a round: repeat it before every
     sixth *)
  Util.rounds ?setup ~setup_every:6 ~seconds (fun () ->
      Array.to_list (Util.shuffle rng captures) |> List.concat_map one)

let run ~seed ~seconds ~trace =
  let build = build ~seed in
  let captured = build () in
  (* a round replays the stencil stream twice and every racy roster
     stream once: full 64 KiB chunks are then the majority, and the median
     chunk verdict is a full chunk's rather than whichever small stream
     sits at the middle *)
  let captures = Array.append [| captured.(0) |] captured in
  let rng = Random.State.make [| seed; 1 |] in
  let tally = Util.tally () in
  let per_round = Array.length captures in
  let records_per_round =
    Array.fold_left (fun acc c -> acc + c.records) 0 captures
  in
  let bytes = Array.fold_left (fun acc c -> acc + String.length c.bytes) 0 captures in
  Printf.printf "  %d streams, %d records, %d bytes per round\n" per_round
    records_per_round bytes;
  let metrics =
    if not trace then begin
      let rounds = run_loop ~setup:build ~rng ~tally ~seconds captures in
      let streams_per_s = Util.rate ~per_round rounds in
      [
        Util.metric "setup_s" "s" (Util.setup_median rounds);
        Util.metric "checks_per_s" "1/s" streams_per_s
          ~note:("streams to final verdict, " ^ Util.rounds_note rounds);
        Util.metric "records_per_s" "1/s"
          (streams_per_s *. float_of_int records_per_round /. float_of_int per_round);
        Util.metric "max_jobs_per_s" "1/s" streams_per_s ~note:"closed loop, 1 thread";
      ]
      @ Report.unqueued_latencies (Util.latencies rounds)
    end
    else begin
      let plain = run_loop ~rng ~tally ~seconds:(0.35 *. seconds) captures in
      let led = Ledger.create () in
      let t0 = Util.now_ns () in
      let traced = run_loop ~led ~rng ~tally ~seconds:(0.55 *. seconds) captures in
      let wall_ms = Util.ms_since t0 in
      let ops = per_round * (List.length traced + 1) in
      let fast_ratio, vc_full =
        Checks.detector_counters ~ops:(Array.length captured) (fun () ->
            Array.iter (fun c -> ignore (replay c)) captured)
      in
      Ledger.write led (Printf.sprintf "perfbench/out/trace-replay-%d.jsonl" seed);
      let rate_plain = Util.rate ~per_round plain in
      let rate_traced = Util.rate ~per_round traced in
      Ledger.report led ~wall_ms ~ops
      @ layer_metrics led ~ops
      @ [
          Util.metric "barracuda.epoch_fast_ratio" "ratio" fast_ratio;
          Util.metric "barracuda.vc_full" "count" vc_full;
          Util.metric "trace.overhead" "x" (rate_plain /. rate_traced);
        ]
    end
  in
  (tally, metrics, Array.map (fun c -> c.item) captured)
