(* The concurrent host (§4.3): one consumer domain per queue draining
   while the kernel runs.  Verdicts must match the serial sink on every
   workload (witness pairs may differ: cross-queue ordering is
   nondeterministic, as in the deployed system). *)

module W = Workloads.Workload
module Pipeline = Gpu_runtime.Pipeline
module Session = Gpu_runtime.Session

let detector = { Barracuda.Detector.default_config with max_reports = 100000 }

let run_serial (w : W.t) = W.run_pipeline ~detector w

let run_parallel ?(queues = 2) ?queue_capacity (w : W.t) =
  let sink, stats =
    Pipeline.parallel_sink ~queues ?queue_capacity ~config:detector
      ~layout:w.W.layout w.W.kernel
  in
  let r = W.run_pipeline ~sink ~detector w in
  (r, stats ())

let check_verdict (w : W.t) () =
  let r, _ = run_parallel w in
  Alcotest.(check bool) "completes" true
    (r.Session.sr_machine_result.Simt.Machine.status = Simt.Machine.Completed);
  let expected_racy = w.W.expected <> W.Race_free in
  Alcotest.(check bool) "verdict matches expectation" expected_racy
    (Barracuda.Report.has_race r.Session.sr_report)

let test_no_records_lost () =
  let w = Workloads.Registry.find "backprop" in
  let seq = run_serial w in
  let par, stats = run_parallel w in
  Alcotest.(check int) "same record count as sequential"
    seq.Session.sr_records par.Session.sr_records;
  Alcotest.(check int) "queue stats count every record" par.Session.sr_records
    stats.Pipeline.records

let test_single_queue_parallel () =
  (* with one queue, the one consumer sees the total order: exact
     agreement with the serial sink *)
  let w = Workloads.Registry.find "pathfinder" in
  let seq = run_serial w in
  let par, _ = run_parallel ~queues:1 w in
  let count (r : Session.stream_result) =
    Barracuda.Report.race_count r.Session.sr_report
  in
  Alcotest.(check int) "identical race counts" (count seq) (count par)

let test_many_queues () =
  let w = Workloads.Registry.find "dxtc" in
  let r, _ = run_parallel ~queues:4 w in
  let s, g = W.racy_word_counts r.Session.sr_report in
  Alcotest.(check bool) "dxtc shared races found in parallel" true (s >= 90);
  Alcotest.(check int) "no global races" 0 g

let test_backpressure () =
  (* a queue far smaller than the record stream: the producer must hit
     the full queue (stalls > 0), and the push that filled it pins the
     high watermark at exactly the capacity, with no records dropped *)
  let w = Workloads.Registry.find "backprop" in
  let capacity = 4 in
  let seq = run_serial w in
  let par, stats = run_parallel ~queue_capacity:capacity w in
  Alcotest.(check bool) "parallel: producer stalled on the tiny queue" true
    (stats.Pipeline.stalls > 0);
  Alcotest.(check int) "parallel: high watermark is the capacity" capacity
    stats.Pipeline.high_watermark;
  Alcotest.(check int) "no records lost under backpressure"
    seq.Session.sr_records par.Session.sr_records

(* ---- full-bugsuite parity across all consumption paths ----------- *)

(* Every way of consuming the record stream must agree with the
   reference semantics: the serial sink and the parallel sink on each
   case's own setup, and the service daemon against a one-shot run of the same
   submission (the service resolves its own textual arg specs, so its
   baseline is a sequential run with identical resolved args). *)

module P = Service.Protocol

let reference_racy (c : Bugsuite.Case.t) =
  let m = Simt.Machine.create ~layout:c.Bugsuite.Case.layout () in
  let args = c.Bugsuite.Case.setup m in
  let ops, _ =
    Gtrace.Infer.run ~layout:c.Bugsuite.Case.layout m c.Bugsuite.Case.kernel
      args
  in
  let d = Barracuda.Reference.create ~layout:c.Bugsuite.Case.layout () in
  Barracuda.Reference.run d ops;
  Barracuda.Report.has_race (Barracuda.Reference.report d)

let pipeline_racy ~parallel (c : Bugsuite.Case.t) =
  let m = Simt.Machine.create ~layout:c.Bugsuite.Case.layout () in
  let args = c.Bugsuite.Case.setup m in
  let kernel = c.Bugsuite.Case.kernel in
  (* ship the full stream: pruning's precision trade-off is measured
     elsewhere, parity is about the transport; the parallel run
     exercises cross-queue acquires over two queues *)
  let inst = Instrument.Pass.instrument ~prune:false ~static:true kernel in
  let sink =
    if parallel then
      Some
        (fst
           (Pipeline.parallel_sink ~queues:2 ~config:detector
              ~layout:c.Bugsuite.Case.layout kernel))
    else None
  in
  let r = Session.run_stream ?sink ~detector ~inst ~machine:m kernel args in
  Barracuda.Report.has_race r.Session.sr_report

let test_bugsuite_parity_all_paths () =
  List.iter
    (fun (c : Bugsuite.Case.t) ->
      let expected = reference_racy c in
      Alcotest.(check bool)
        (c.Bugsuite.Case.name ^ ": serial sink matches reference")
        expected
        (pipeline_racy ~parallel:false c);
      Alcotest.(check bool)
        (c.Bugsuite.Case.name ^ ": parallel pipeline matches reference")
        expected
        (pipeline_racy ~parallel:true c))
    Bugsuite.Cases.all

let test_bugsuite_service_parity () =
  (* the service path: each case submitted to a live daemon must agree
     with a one-shot sequential run of the identical submission *)
  let socket_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "barracuda-par-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let config =
    { Service.Server.default_config with socket_path; workers = 2 }
  in
  let t = Service.Server.start ~config () in
  Fun.protect
    ~finally:(fun () -> Service.Server.stop t)
    (fun () ->
      Alcotest.(check bool)
        "daemon ready" true
        (Service.Client.wait_ready ~socket:socket_path ());
      List.iter
        (fun (c : Bugsuite.Case.t) ->
          let source =
            Format.asprintf "%a" Ptx.Printer.pp_kernel c.Bugsuite.Case.kernel
          in
          let layout = c.Bugsuite.Case.layout in
          let args =
            List.map
              (fun _ -> "alloc:256")
              c.Bugsuite.Case.kernel.Ptx.Ast.params
          in
          let sub =
            {
              (P.submit_defaults ~kind:P.Check source) with
              P.layout =
                Some
                  ( layout.Vclock.Layout.blocks,
                    layout.Vclock.Layout.threads_per_block,
                    layout.Vclock.Layout.warp_size );
              args;
            }
          in
          let via_service =
            match Service.Client.submit ~retries:10 ~socket:socket_path sub with
            | Ok (P.Result { outcome; _ }) -> Some outcome.P.verdict
            | Ok (P.Failed { code = "timeout"; _ }) -> None
            | Ok r ->
                Alcotest.failf "case %s: unexpected reply %s"
                  c.Bugsuite.Case.name (P.encode_response r)
            | Result.Error e ->
                Alcotest.failf "case %s: transport: %s" c.Bugsuite.Case.name e
          in
          let oneshot =
            (* the same session-core path the service's serial jobs run *)
            let kernel = Ptx.Parser.kernel_of_string source in
            let machine = Simt.Machine.create ~layout () in
            let rargs = Service.Exec.resolve_args machine kernel args in
            let inst =
              Instrument.Pass.instrument ~prune:true ~static:true kernel
            in
            let result =
              Gpu_runtime.Session.run_stream
                ~max_steps:Service.Exec.default_config.Service.Exec.max_steps
                ~inst ~machine kernel rargs
            in
            match
              result.Gpu_runtime.Session.sr_machine_result.Simt.Machine.status
            with
            | Simt.Machine.Max_steps _ | Simt.Machine.Deadline _ -> None
            | Simt.Machine.Completed ->
                Some
                  (if
                     Barracuda.Report.has_race
                       result.Gpu_runtime.Session.sr_report
                   then P.Racy
                   else P.Race_free)
          in
          if via_service <> oneshot then
            Alcotest.failf "case %s: service and one-shot verdicts differ"
              c.Bugsuite.Case.name)
        Bugsuite.Cases.all)

(* a subset of workloads that exercises every interaction kind *)
let subset =
  [ "backprop"; "dwt2d"; "hybridsort"; "pathfinder"; "hashtable";
    "threadfencered"; "d_scan"; "d_reduce" ]

let suite =
  [
    Alcotest.test_case "no records lost" `Quick test_no_records_lost;
    Alcotest.test_case "single-queue parallel exact" `Quick
      test_single_queue_parallel;
    Alcotest.test_case "four queues" `Quick test_many_queues;
    Alcotest.test_case "backpressure on tiny queues" `Quick test_backpressure;
    Alcotest.test_case "bugsuite parity: sequential+parallel vs reference"
      `Quick test_bugsuite_parity_all_paths;
    Alcotest.test_case "bugsuite parity: service vs one-shot" `Quick
      test_bugsuite_service_parity;
  ]
  @ List.map
      (fun name ->
        let w = Workloads.Registry.find name in
        Alcotest.test_case
          (Printf.sprintf "parallel verdict: %s" name)
          `Quick (check_verdict w))
      subset
