(* The detector benchmark.

     main.exe --workload stencil|replay|daemon --seed N
              --seconds S --trace 0|1

   Prints one line per metric, then (last line) the JSON result object.
   Run from the root of the repository; run.py builds and invokes it. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload stencil|replay|daemon --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0.0 -> (s, t, tr)
    | _ -> usage ()
  in
  if not (Sys.file_exists "examples" && Sys.is_directory "examples") then begin
    prerr_endline "perfbench: run from the repository root";
    exit 2
  end;
  (try Unix.mkdir "perfbench/out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Printf.printf "perfbench: workload %s, seed %d, %.0f s, trace %b\n%!" !workload
    seed seconds trace;
  let tally, metrics, items =
    match !workload with
    | "stencil" -> Oneshot.run ~seed ~seconds ~trace
    | "replay" -> Replay_wl.run ~seed ~seconds ~trace
    | "daemon" -> Daemon_wl.run ~seed ~seconds ~trace
    | _ -> usage ()
  in
  let metrics =
    if trace then begin
      (* the workload's own figures first: they take precedence *)
      let probes =
        Probe.layers ~tally items
        @ if !workload = "daemon" then [] else Daemon_wl.service_probe ~seed items
      in
      Report.complete ~spec:Report.per_layer
        ((Report.failed_share tally :: metrics) @ probes)
    end
    else
      Report.complete ~spec:Report.end_to_end
        (Report.ok_share tally
        :: Util.metric "peak_heap_mb" "MiB" (Util.peak_heap_mb ())
        :: metrics)
  in
  Util.print_failures tally;
  (* a wrong verdict is a failed operation; the result is incorrect
     when a failure is not one the workload documents as known *)
  Report.print
    {
      Util.correct = tally.Util.unexplained = 0;
      attempted = tally.Util.attempted;
      failed = tally.Util.failed;
      metrics;
    }
