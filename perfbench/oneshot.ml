(* The [stencil] workload: one-shot checks of a generated
   tiled stencil. *)

let stencil_blocks = 128
let stencil_steps = 2
let stencil_races = 6

(* Set-up: kernel generation and printing.  Repeated between the timed
   rounds; setup_s is the median of the repetitions. *)
let build ~seed () =
  let rng = Random.State.make [| seed |] in
  let items =
    [ Inputs.stencil_item rng ~blocks:stencil_blocks ~steps:stencil_steps ~k:stencil_races ]
  in
  Inputs.print_items items;
  Array.of_list items

let run ~seed ~seconds ~trace =
  let build = build ~seed in
  let items = build () in
  let rng = Random.State.make [| seed; 1 |] in
  let tally = Util.tally () in
  let per_round = Array.length items in
  Printf.printf "  %d kernels per round\n" per_round;
  let metrics =
    if not trace then begin
      let records, rounds = Checks.run_loop ~setup:build ~rng ~tally ~seconds items in
      let checks_per_s = Util.rate ~per_round rounds in
      [
        Util.metric "setup_s" "s" (Util.setup_median rounds);
        Util.metric "checks_per_s" "1/s" checks_per_s ~note:(Util.rounds_note rounds);
        Util.metric "records_per_s" "1/s"
          (float_of_int records /. float_of_int per_round *. checks_per_s)
          ~note:(Printf.sprintf "%d records per round" records);
        Util.metric "max_jobs_per_s" "1/s" checks_per_s ~note:"closed loop, 1 thread";
      ]
      @ Report.unqueued_latencies (Util.latencies rounds)
    end
    else begin
      (* untraced then traced loops: their rate ratio is the tracing
         overhead *)
      let _, plain = Checks.run_loop ~rng ~tally ~seconds:(0.3 *. seconds) items in
      let led = Ledger.create () in
      let t0 = Util.now_ns () in
      let _, traced = Checks.run_loop ~led ~rng ~tally ~seconds:(0.45 *. seconds) items in
      let wall_ms = Util.ms_since t0 in
      let rate_plain = Util.rate ~per_round plain in
      let rate_traced = Util.rate ~per_round traced in
      (* the warm-up round is inside [wall_ms] too *)
      let ops = per_round * (List.length traced + 1) in
      Ledger.write led (Printf.sprintf "perfbench/out/trace-stencil-%d.jsonl" seed);
      Ledger.report led ~wall_ms ~ops
      @ Checks.layer_metrics led ~ops
      @ [ Util.metric "trace.overhead" "x" (rate_plain /. rate_traced) ]
    end
  in
  (tally, metrics, items)
