(* Telemetry subsystem: registry semantics, exporter round-trips, and
   the driver hooks.  The counters the parallel sink's hooks maintain
   must agree with its own queue stats, and enabling telemetry must not
   perturb detector verdicts. *)

module W = Workloads.Workload
module Pipeline = Gpu_runtime.Pipeline
module Session = Gpu_runtime.Session

let with_telemetry f =
  Telemetry.Registry.set_enabled true;
  Telemetry.Registry.reset Telemetry.Registry.default;
  Fun.protect ~finally:(fun () -> Telemetry.Registry.set_enabled false) f

(* The instrumented check through the parallel sink: the one path that
   exercises every stage span and queue hook. *)
let run_pipeline (w : W.t) =
  let sink, stats =
    Pipeline.parallel_sink ~queues:2 ~layout:w.W.layout w.W.kernel
  in
  let r = W.run_pipeline ~sink w in
  (r, stats ())

(* ------------------------------------------------------------------ *)
(* Metric and registry semantics                                       *)

let test_counter_gauge () =
  with_telemetry (fun () ->
      let r = Telemetry.Registry.create () in
      let c = Telemetry.Registry.counter r "c_total" in
      Telemetry.Metric.counter_incr c;
      Telemetry.Metric.counter_add c 41;
      Alcotest.(check int) "counter" 42 (Telemetry.Metric.counter_value c);
      let g = Telemetry.Registry.gauge r "g" in
      Telemetry.Metric.gauge_max g 7;
      Telemetry.Metric.gauge_max g 3;
      Alcotest.(check int) "gauge keeps max" 7 (Telemetry.Metric.gauge_value g);
      let c' = Telemetry.Registry.counter r "c_total" in
      Telemetry.Metric.counter_incr c';
      Alcotest.(check int) "re-registration shares the metric" 43
        (Telemetry.Metric.counter_value c);
      Telemetry.Registry.reset r;
      Alcotest.(check int) "reset zeroes" 0 (Telemetry.Metric.counter_value c))

let test_disabled_is_noop () =
  Telemetry.Registry.set_enabled false;
  let r = Telemetry.Registry.create () in
  let c = Telemetry.Registry.counter r "c_total" in
  Telemetry.Metric.counter_incr c;
  Alcotest.(check int) "disabled counter stays 0" 0
    (Telemetry.Metric.counter_value c);
  let n = ref 0 in
  let v = Telemetry.Span.with_ ~registry:r ~name:"s" (fun () -> incr n; 9) in
  Alcotest.(check int) "thunk ran" 1 !n;
  Alcotest.(check int) "value passed through" 9 v;
  Alcotest.(check int) "no span recorded" 0
    (Telemetry.Registry.find_counter
       ~labels:[ ("span", "s") ]
       r "barracuda_span_calls_total")

let test_kind_mismatch () =
  with_telemetry (fun () ->
      let r = Telemetry.Registry.create () in
      ignore (Telemetry.Registry.counter r "m");
      Alcotest.check_raises "kind mismatch rejected"
        (Invalid_argument "Telemetry.Registry: m already registered as a counter")
        (fun () -> ignore (Telemetry.Registry.gauge r "m")))

let test_labels_distinct () =
  with_telemetry (fun () ->
      let r = Telemetry.Registry.create () in
      let a = Telemetry.Registry.counter ~labels:[ ("q", "0") ] r "d_total" in
      let b = Telemetry.Registry.counter ~labels:[ ("q", "1") ] r "d_total" in
      Telemetry.Metric.counter_add a 5;
      Telemetry.Metric.counter_incr b;
      Alcotest.(check int) "label set 0" 5
        (Telemetry.Registry.find_counter ~labels:[ ("q", "0") ] r "d_total");
      Alcotest.(check int) "label set 1" 1
        (Telemetry.Registry.find_counter ~labels:[ ("q", "1") ] r "d_total"))

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

let sample_registry () =
  let r = Telemetry.Registry.create () in
  let c = Telemetry.Registry.counter ~help:"a counter" r "x_total" in
  Telemetry.Metric.counter_add c 17;
  let g = Telemetry.Registry.gauge ~labels:[ ("k", "v") ] r "depth" in
  Telemetry.Metric.gauge_max g 12;
  let h =
    Telemetry.Registry.histogram ~bounds:[| 1.0; 10.0 |] r "lat_ms"
  in
  Telemetry.Metric.histogram_observe h 0.5;
  Telemetry.Metric.histogram_observe h 5.0;
  Telemetry.Metric.histogram_observe h 50.0;
  r

let test_json_roundtrip () =
  with_telemetry (fun () ->
      let r = sample_registry () in
      let doc = Telemetry.Export.json_of r in
      match Telemetry.Json.of_string (Telemetry.Export.to_json_string r) with
      | Error e -> Alcotest.failf "exported JSON does not parse: %s" e
      | Ok parsed ->
          Alcotest.(check bool) "parse (print doc) = doc" true (parsed = doc))

let test_json_parser () =
  let t = {|{"a": [1, -2.5, true, null], "b": {"s": "x\n\"y"}}|} in
  (match Telemetry.Json.of_string t with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j -> (
      let first_of_a =
        match Telemetry.Json.member "a" j with
        | Some (Telemetry.Json.List (hd :: _)) -> Telemetry.Json.to_int hd
        | _ -> None
      in
      Alcotest.(check (option int)) "nested int" (Some 1) first_of_a;
      match Telemetry.Json.member "c" j with
      | None -> ()
      | Some _ -> Alcotest.fail "absent member"));
  match Telemetry.Json.of_string "{\"a\": }" with
  | Ok _ -> Alcotest.fail "malformed JSON accepted"
  | Error _ -> ()

let test_prometheus () =
  with_telemetry (fun () ->
      let r = sample_registry () in
      let text = Telemetry.Export.to_prometheus r in
      let contains sub =
        let n = String.length sub and m = String.length text in
        let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
        go 0
      in
      List.iter
        (fun line ->
          Alcotest.(check bool) (Printf.sprintf "contains %S" line) true
            (contains line))
        [
          "# TYPE x_total counter";
          "x_total 17";
          "depth{k=\"v\"} 12";
          (* buckets are cumulative: 0.5 -> first, 5.0 -> second, 50 -> +Inf *)
          "lat_ms_bucket{le=\"1\"} 1";
          "lat_ms_bucket{le=\"10\"} 2";
          "lat_ms_bucket{le=\"+Inf\"} 3";
          "lat_ms_count 3";
        ])

(* ------------------------------------------------------------------ *)
(* Pipeline hooks                                                      *)

let stage_names = [ "instrument"; "execute"; "queue"; "detect" ]

let test_hooks_match_queue_stats () =
  with_telemetry (fun () ->
      let w = Workloads.Registry.find "backprop" in
      let r, stats = run_pipeline w in
      let reg = Telemetry.Registry.default in
      let counter = Telemetry.Registry.find_counter reg in
      Alcotest.(check int) "records counter = queue_stats.records"
        stats.Pipeline.records
        (counter "barracuda_pipeline_records_total");
      Alcotest.(check int) "queue pushes = records shipped"
        stats.Pipeline.records
        (counter "barracuda_queue_pushes_total");
      Alcotest.(check int) "stalls counter = queue_stats.stalls"
        stats.Pipeline.stalls
        (counter "barracuda_pipeline_stalls_total");
      Alcotest.(check int) "high watermark gauge = queue_stats"
        stats.Pipeline.high_watermark
        (Telemetry.Registry.find_gauge reg "barracuda_queue_high_watermark");
      Alcotest.(check int) "detector saw every record"
        stats.Pipeline.records
        (counter "barracuda_detector_records_total");
      Alcotest.(check int) "the driver counted the same records"
        r.Session.sr_records stats.Pipeline.records)

let test_stage_spans_in_json () =
  with_telemetry (fun () ->
      ignore (run_pipeline (Workloads.Registry.find "pathfinder"));
      let doc = Telemetry.Export.json_of Telemetry.Registry.default in
      let span_labels =
        match Telemetry.Json.member "metrics" doc with
        | Some (Telemetry.Json.List ms) ->
            List.filter_map
              (fun m ->
                match
                  ( Telemetry.Json.member "name" m,
                    Telemetry.Json.member "labels" m )
                with
                | Some (Telemetry.Json.Str "barracuda_span_calls_total"),
                  Some labels ->
                    Option.bind
                      (Telemetry.Json.member "span" labels)
                      Telemetry.Json.to_str
                | _ -> None)
              ms
        | _ -> []
      in
      List.iter
        (fun stage ->
          Alcotest.(check bool)
            (Printf.sprintf "span %S exported" stage)
            true
            (List.mem stage span_labels))
        stage_names)

let test_verdicts_unchanged () =
  (* telemetry must be observation-only: identical race counts with the
     registry enabled and disabled, across the whole workload registry *)
  List.iter
    (fun (w : W.t) ->
      Telemetry.Registry.set_enabled false;
      let off, _ = W.run_detector w in
      let off_report = Barracuda.Detector.report off in
      with_telemetry (fun () ->
          let on, _ = W.run_detector w in
          let on_report = Barracuda.Detector.report on in
          Alcotest.(check int)
            (Printf.sprintf "%s: race count unchanged" w.W.name)
            (Barracuda.Report.race_count off_report)
            (Barracuda.Report.race_count on_report);
          Alcotest.(check bool)
            (Printf.sprintf "%s: verdict unchanged" w.W.name)
            (Barracuda.Report.has_race off_report)
            (Barracuda.Report.has_race on_report)))
    Workloads.Registry.all

let test_session_rollups () =
  with_telemetry (fun () ->
      let w = Workloads.Registry.find "backprop" in
      let layout = w.W.layout in
      let session = Gpu_runtime.Session.create ~layout () in
      let args = w.W.setup (Gpu_runtime.Session.machine session) in
      ignore (Gpu_runtime.Session.launch session w.W.kernel args);
      let args = w.W.setup (Gpu_runtime.Session.machine session) in
      ignore (Gpu_runtime.Session.launch session w.W.kernel args);
      let rollups = Gpu_runtime.Session.rollups session in
      Alcotest.(check int) "one rollup per launch" 2 (List.length rollups);
      List.iter
        (fun (r : Gpu_runtime.Session.rollup) ->
          Alcotest.(check string) "rollup names the kernel"
            w.W.kernel.Ptx.Ast.kname r.Gpu_runtime.Session.r_kernel;
          Alcotest.(check bool) "rollup shipped records" true
            (r.Gpu_runtime.Session.r_records > 0);
          Alcotest.(check bool) "monotonic duration positive" true
            (r.Gpu_runtime.Session.r_ns > 0L))
        rollups;
      Alcotest.(check int) "session launch counter" 2
        (Telemetry.Registry.find_counter Telemetry.Registry.default
           "barracuda_session_launches_total"))

let suite =
  [
    Alcotest.test_case "counter/gauge semantics" `Quick test_counter_gauge;
    Alcotest.test_case "disabled sink is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "kind mismatch rejected" `Quick test_kind_mismatch;
    Alcotest.test_case "label sets are distinct metrics" `Quick
      test_labels_distinct;
    Alcotest.test_case "JSON export round-trips" `Quick test_json_roundtrip;
    Alcotest.test_case "JSON parser corners" `Quick test_json_parser;
    Alcotest.test_case "Prometheus exposition format" `Quick test_prometheus;
    Alcotest.test_case "hooks match queue_stats" `Quick
      test_hooks_match_queue_stats;
    Alcotest.test_case "stage spans exported" `Quick test_stage_spans_in_json;
    Alcotest.test_case "verdicts unchanged by telemetry" `Quick
      test_verdicts_unchanged;
    Alcotest.test_case "session rollups" `Quick test_session_rollups;
  ]
