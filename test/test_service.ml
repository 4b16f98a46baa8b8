(* The race-checking service: wire protocol, artifact cache, scheduler
   backpressure, daemon lifecycle (crash isolation, timeouts), and
   verdict parity between the daemon and one-shot checking. *)

module P = Service.Protocol
module Case = Bugsuite.Case

let ok_outcome =
  {
    P.verdict = P.Race_free;
    races = 0;
    errors = [];
    cache_hit = false;
    predicted = 0;
    confirmed = 0;
    degraded = false;
    static = false;
    repaired = false;
    fix = "";
    repair_tried = 0;
    detect_ms = 0.0;
  }

let tmp_socket name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "barracuda-test-%d-%s.sock" (Unix.getpid ()) name)

let with_server ?(workers = 2) ?(queue_capacity = 64) ?max_steps name f =
  let socket_path = tmp_socket name in
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let config =
    {
      Service.Server.default_config with
      socket_path;
      workers;
      queue_capacity;
      max_steps =
        (match max_steps with
        | Some n -> n
        | None -> Service.Server.default_config.Service.Server.max_steps);
    }
  in
  let t = Service.Server.start ~config () in
  Fun.protect
    ~finally:(fun () -> Service.Server.stop t)
    (fun () ->
      Alcotest.(check bool)
        "daemon ready" true
        (Service.Client.wait_ready ~socket:socket_path ());
      f socket_path t)

(* ---- protocol ---------------------------------------------------- *)

let check_request_roundtrip req =
  match P.decode_request (P.encode_request req) with
  | Ok req' ->
      Alcotest.(check bool) (P.encode_request req) true (req = req')
  | Result.Error e -> Alcotest.failf "decode_request: %s" e

let check_response_roundtrip resp =
  match P.decode_response (P.encode_response resp) with
  | Ok resp' ->
      Alcotest.(check bool) (P.encode_response resp) true (resp = resp')
  | Result.Error e -> Alcotest.failf "decode_response: %s" e

let test_protocol_roundtrip () =
  List.iter check_request_roundtrip
    [
      P.Ping;
      P.Status;
      P.Metrics;
      P.Shutdown;
      P.Submit (P.submit_defaults ~kind:P.Check ".visible .entry k () { ret; }");
      P.Submit
        {
          P.kind = P.Predict;
          payload = "line one\nline \"two\"\ttab\\slash";
          layout = Some (4, 128, 32);
          args = [ "alloc:256"; "int:7"; "42" ];
          prune = false;
          static = false;
          tenant = Some "acme";
        };
      P.Stream_open
        (P.submit_defaults ~kind:P.Check ".visible .entry k () { ret; }");
      P.Stream_append { sid = 7; chunk = "\x00\xffbinary\ngoo\x01" };
      P.Stream_flush { sid = 7 };
      P.Stream_close { sid = 7 };
    ];
  List.iter check_response_roundtrip
    [
      P.Pong;
      P.Stopping;
      P.Error "unparsable request";
      P.Rejected { reason = "queue_full"; retry_after_ms = 50 };
      P.Failed { job = 9; code = "parse_error"; message = "PTX line 3: no" };
      P.Result
        {
          job = 4;
          outcome =
            {
              P.verdict = P.Racy;
              races = 3;
              errors = [ "race on g[0]"; "race on g[1]" ];
              cache_hit = true;
              predicted = 2;
              confirmed = 1;
              degraded = true;
              static = true;
              repaired = false;
              fix = "";
              repair_tried = 0;
              detect_ms = 1.75;
            };
          queue_ms = 0.25;
          run_ms = 41.5;
        };
      P.Status_reply
        {
          P.uptime_ms = 1234.5;
          workers = 4;
          busy = 1;
          queue_depth = 2;
          queue_capacity = 64;
          submitted = 10;
          completed = 7;
          failed = 1;
          rejected = 2;
          racy = 3;
          race_free = 4;
          quarantined = 1;
          workers_restarted = 2;
          cache_entries = 5;
          cache_hits = 6;
          cache_misses = 5;
          cache_evictions = 0;
          session_seats = 2;
          open_sessions = 1;
          sessions_opened = 9;
          integrity_corrupt = 3;
          integrity_gaps = 2;
          integrity_stale = 1;
          integrity_desync = 4;
          tenants =
            [
              {
                P.t_name = "acme";
                t_queued = 1;
                t_inflight = 2;
                t_submitted = 9;
                t_completed = 6;
                t_rejected = 1;
                t_p50_ms = 2.5;
                t_p99_ms = 50.0;
              };
            ];
          campaign =
            Some
              {
                P.ca_trials = 12;
                ca_total = 800;
                ca_batches = 2;
                ca_silent_wrong = 0;
                ca_paused = true;
              };
        };
      P.Stream_opened { sid = 7 };
      P.Stream_ack { sid = 7; records = 1234 };
      P.Stream_verdict
        {
          sid = 7;
          final = false;
          records = 1234;
          races = 2;
          verdict = P.Racy;
          degraded = true;
          corrupt = 1;
          gaps = 2;
          stale = 0;
          desync = 0;
        };
      P.Stream_verdict
        {
          sid = 8;
          final = true;
          records = 0;
          races = 0;
          verdict = P.Race_free;
          degraded = false;
          corrupt = 0;
          gaps = 0;
          stale = 0;
          desync = 0;
        };
      P.Metrics_reply "# TYPE a counter\na 1\n";
    ];
  (* Malformed input degrades to [Error], never an exception. *)
  (match P.decode_request "{\"cmd\":\"no_such\"}" with
  | Result.Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown cmd should not decode");
  match P.decode_request "not json at all" with
  | Result.Error _ -> ()
  | Ok _ -> Alcotest.fail "junk should not decode"

(* ---- framing ----------------------------------------------------- *)

let test_oversized_frame () =
  (* Unit level: the cap stops the read mid-line and is distinguishable
     from a clean EOF. *)
  let file = Filename.temp_file "barracuda-frame" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin file in
      let chunk = String.make 65536 'a' in
      for _ = 1 to (P.max_frame_bytes / 65536) + 1 do
        output_string oc chunk
      done;
      output_string oc "\n{\"cmd\":\"ping\"}\n";
      close_out oc;
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match P.read_frame ic with
          | P.Oversized -> ()
          | P.Frame _ -> Alcotest.fail "oversized frame was accepted"
          | P.Eof -> Alcotest.fail "oversized frame read as EOF");
      let ic = open_in_bin "/dev/null" in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match P.read_frame ic with
          | P.Eof -> ()
          | _ -> Alcotest.fail "empty input should read as EOF"))

let test_oversized_frame_daemon () =
  with_server "oversize" (fun socket _t ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          let chunk = Bytes.make 65536 'a' in
          let remaining = ref (P.max_frame_bytes + 2) in
          (try
             while !remaining > 0 do
               let n = min !remaining (Bytes.length chunk) in
               remaining := !remaining - Unix.write fd chunk 0 n
             done
           with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
          (match P.read_frame (Unix.in_channel_of_descr fd) with
          | P.Frame line -> (
              match P.decode_response line with
              | Ok (P.Error _) -> ()
              | Ok r ->
                  Alcotest.failf "expected protocol error, got %s"
                    (P.encode_response r)
              | Result.Error e -> Alcotest.failf "undecodable reply: %s" e)
          | P.Eof | P.Oversized ->
              Alcotest.fail "daemon closed without a protocol error reply"));
      (* The daemon survives the abuse and keeps serving. *)
      Alcotest.(check bool)
        "daemon still responsive" true
        (Service.Client.ping ~socket))

(* ---- artifact cache ---------------------------------------------- *)

let tiny_entry () =
  let b = Ptx.Builder.create ~params:[ "p0" ] "tiny" in
  Ptx.Builder.st b (Ptx.Builder.sym "p0") (Ptx.Builder.imm 1);
  let kernel = Ptx.Builder.finish b in
  {
    Service.Cache.kernel;
    cfg = Cfg.Graph.of_kernel kernel;
    inst = Instrument.Pass.instrument ~prune:true kernel;
    analysis = Static.Analysis.analyze kernel;
  }

let test_cache_accounting () =
  let cache = Service.Cache.create ~capacity:2 () in
  let builds = ref 0 in
  let build () =
    incr builds;
    tiny_entry ()
  in
  let _, hit = Service.Cache.find_or_build cache "a" ~build in
  Alcotest.(check bool) "first lookup misses" false hit;
  let _, hit = Service.Cache.find_or_build cache "a" ~build in
  Alcotest.(check bool) "second lookup hits" true hit;
  Alcotest.(check int) "hit does not rebuild" 1 !builds;
  ignore (Service.Cache.find_or_build cache "b" ~build);
  ignore (Service.Cache.find_or_build cache "c" ~build);
  let s = Service.Cache.stats cache in
  Alcotest.(check int) "bounded by capacity" 2 s.Service.Cache.entries;
  Alcotest.(check int) "evicted one entry" 1 s.Service.Cache.evictions;
  Alcotest.(check int) "hits counted" 1 s.Service.Cache.hits;
  Alcotest.(check int) "misses counted" 3 s.Service.Cache.misses;
  (* "a" was least recently used and must be the evictee: rebuilding it
     misses, while "c" still hits. *)
  let _, hit = Service.Cache.find_or_build cache "c" ~build in
  Alcotest.(check bool) "recent key survives" true hit;
  let _, hit = Service.Cache.find_or_build cache "a" ~build in
  Alcotest.(check bool) "LRU key was evicted" false hit;
  (* Failed builds propagate and are not negatively cached. *)
  (match
     Service.Cache.find_or_build cache "bad" ~build:(fun () ->
         failwith "boom")
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "failing build should raise");
  let _, hit = Service.Cache.find_or_build cache "bad" ~build in
  Alcotest.(check bool) "failure was not cached" false hit;
  let key ~prune ~static s = Service.Cache.key ~prune ~static s in
  Alcotest.(check bool) "different sources, different keys" true
    (key ~prune:true ~static:true "x" <> key ~prune:true ~static:true "y");
  Alcotest.(check bool) "prune flag changes the key" true
    (key ~prune:true ~static:true "x" <> key ~prune:false ~static:true "x");
  Alcotest.(check bool) "static flag changes the key" true
    (key ~prune:true ~static:true "x" <> key ~prune:true ~static:false "x")

(* ---- scheduler backpressure -------------------------------------- *)

(* Deterministic saturation: a controllable exec blocks its worker
   until released, so with one worker and a one-slot queue the third
   submission must be rejected synchronously. *)
let test_backpressure () =
  let m = Mutex.create () in
  let cv = Condition.create () in
  let running = ref 0 in
  let release = ref false in
  let exec ~job (_ : P.submit) =
    Mutex.lock m;
    incr running;
    Condition.broadcast cv;
    while not !release do
      Condition.wait cv m
    done;
    Mutex.unlock m;
    P.Result { job; outcome = ok_outcome; queue_ms = 0.0; run_ms = 0.0 }
  in
  let sched =
    Service.Scheduler.create
      ~config:
        {
          Service.Scheduler.default_config with
          Service.Scheduler.workers = 1;
          queue_capacity = 1;
          retry_after_ms = 7;
        }
      ~exec ()
  in
  let replies = ref [] in
  let reply r =
    Mutex.lock m;
    replies := r :: !replies;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  let sub = P.submit_defaults ~kind:P.Check "irrelevant" in
  Service.Scheduler.submit sched sub ~reply;
  (* Wait until the worker holds job 1, so job 2 occupies the only
     queue slot and job 3 finds the queue full. *)
  Mutex.lock m;
  while !running < 1 do
    Condition.wait cv m
  done;
  Mutex.unlock m;
  Service.Scheduler.submit sched sub ~reply;
  let rejected = ref None in
  Service.Scheduler.submit sched sub ~reply:(fun r -> rejected := Some r);
  (match !rejected with
  | Some (P.Rejected { reason; retry_after_ms }) ->
      Alcotest.(check string) "reject reason" "queue_full" reason;
      Alcotest.(check int) "retry hint" 7 retry_after_ms
  | _ -> Alcotest.fail "third submission should be rejected synchronously");
  Alcotest.(check int) "queue holds the waiting job" 1
    (Service.Scheduler.depth sched);
  Mutex.lock m;
  release := true;
  Condition.broadcast cv;
  while List.length !replies < 2 do
    Condition.wait cv m
  done;
  Mutex.unlock m;
  Service.Scheduler.stop sched;
  List.iter
    (function
      | P.Result _ -> ()
      | r -> Alcotest.failf "accepted job got %s" (P.encode_response r))
    !replies;
  let c = Service.Scheduler.counts sched in
  Alcotest.(check int) "completed" 2 c.Service.Scheduler.completed;
  Alcotest.(check int) "rejected" 1 c.Service.Scheduler.rejected;
  Alcotest.(check int) "failed" 0 c.Service.Scheduler.failed

(* ---- daemon lifecycle -------------------------------------------- *)

let trivial_ptx = ".visible .entry ok (.param .u64 p0)\n{\n    ret;\n}\n"

(* Parses fine, then blows up in CFG construction (dangling branch
   target) — an exception from the middle of the pipeline, which must
   fail only its own job. *)
let dangling_ptx =
  ".visible .entry crash (.param .u64 p0)\n{\n    bra NOWHERE;\n    ret;\n}\n"

let submit_verdict ?(retries = 0) ~socket sub =
  match Service.Client.submit ~retries ~socket sub with
  | Ok (P.Result { outcome; _ }) -> Ok outcome
  | Ok (P.Failed { code; message; _ }) ->
      Result.Error (Printf.sprintf "%s: %s" code message)
  | Ok r -> Result.Error (P.encode_response r)
  | Result.Error e -> Result.Error e

let test_ping_and_status () =
  with_server "status" (fun socket t ->
      Alcotest.(check bool) "ping" true (Service.Client.ping ~socket);
      let s =
        match Service.Client.status ~socket with
        | Ok s -> s
        | Result.Error e -> Alcotest.failf "status: %s" e
      in
      Alcotest.(check int) "workers" 2 s.P.workers;
      Alcotest.(check int) "queue capacity" 64 s.P.queue_capacity;
      Alcotest.(check int) "nothing submitted yet" 0 s.P.submitted;
      Alcotest.(check bool) "uptime advances" true (s.P.uptime_ms >= 0.0);
      (* The server-side view agrees with the wire view. *)
      let local = Service.Server.status t in
      Alcotest.(check int) "local status agrees" local.P.workers s.P.workers;
      match Service.Client.metrics ~socket with
      | Ok text ->
          let mentions_service =
            List.exists
              (String.starts_with ~prefix:"barracuda_service_")
              (String.split_on_char '\n' text)
          in
          Alcotest.(check bool)
            "prometheus text mentions service counters" true mentions_service
      | Result.Error e -> Alcotest.failf "metrics: %s" e)

let test_crash_isolation () =
  (* Confirm the crash kernel really parses: the failure under test is
     a mid-pipeline exception, not a parse error. *)
  ignore (Ptx.Parser.kernel_of_string dangling_ptx);
  with_server "crash" (fun socket _t ->
      (match
         Service.Client.submit ~socket
           (P.submit_defaults ~kind:P.Check dangling_ptx)
       with
      | Ok (P.Failed { code; _ }) ->
          Alcotest.(check string) "mid-pipeline crash code" "exec_error" code
      | Ok r -> Alcotest.failf "expected Failed, got %s" (P.encode_response r)
      | Result.Error e -> Alcotest.failf "transport: %s" e);
      (* The daemon survived: it still answers and still checks. *)
      Alcotest.(check bool) "daemon alive after crash" true
        (Service.Client.ping ~socket);
      (match
         submit_verdict ~socket (P.submit_defaults ~kind:P.Check trivial_ptx)
       with
      | Ok o -> Alcotest.(check bool) "still checks" true (o.P.verdict = P.Race_free)
      | Result.Error e -> Alcotest.failf "submit after crash: %s" e);
      match Service.Client.status ~socket with
      | Ok s ->
          Alcotest.(check int) "one failed job" 1 s.P.failed;
          Alcotest.(check int) "one completed job" 1 s.P.completed
      | Result.Error e -> Alcotest.failf "status: %s" e)

let test_wide_warp_fails_job () =
  (* the layout is client input: a warp wider than a wire record must
     fail its job with the reason, not check a truncated stream *)
  with_server "wide" (fun socket _t ->
      let sub layout =
        { (P.submit_defaults ~kind:P.Check trivial_ptx) with P.layout }
      in
      (match Service.Client.submit ~socket (sub (Some (2, 96, 48))) with
      | Ok (P.Failed { code; message; _ }) ->
          Alcotest.(check string) "code" "exec_error" code;
          Alcotest.(check bool) ("names the warp size: " ^ message) true
            (String.length message > 0
            && String.sub message 0 13 = "warp size 48 ")
      | Ok r -> Alcotest.failf "expected Failed, got %s" (P.encode_response r)
      | Result.Error e -> Alcotest.failf "transport: %s" e);
      match submit_verdict ~socket (sub (Some (2, 64, 32))) with
      | Ok o -> Alcotest.(check bool) "warp 32 still checks" true (o.P.verdict = P.Race_free)
      | Result.Error e -> Alcotest.failf "submit at warp 32: %s" e)

let test_job_timeout () =
  with_server ~max_steps:1 "timeout" (fun socket _t ->
      (match
         Service.Client.submit ~socket
           (P.submit_defaults ~kind:P.Check trivial_ptx)
       with
      | Ok (P.Failed { code; _ }) ->
          Alcotest.(check string) "budget exhaustion code" "timeout" code
      | Ok r -> Alcotest.failf "expected timeout, got %s" (P.encode_response r)
      | Result.Error e -> Alcotest.failf "transport: %s" e);
      Alcotest.(check bool) "daemon alive after timeout" true
        (Service.Client.ping ~socket))

let test_bad_submissions () =
  with_server "badsub" (fun socket _t ->
      (match
         Service.Client.submit ~socket
           (P.submit_defaults ~kind:P.Check "this is not ptx")
       with
      | Ok (P.Failed { code; _ }) ->
          Alcotest.(check string) "parse failure code" "parse_error" code
      | Ok r -> Alcotest.failf "expected Failed, got %s" (P.encode_response r)
      | Result.Error e -> Alcotest.failf "transport: %s" e);
      (match
         Service.Client.submit ~socket
           {
             (P.submit_defaults ~kind:P.Check trivial_ptx) with
             P.args = [ "alloc:nonsense" ];
           }
       with
      | Ok (P.Failed { code; _ }) ->
          Alcotest.(check string) "bad argument code" "bad_request" code
      | Ok r -> Alcotest.failf "expected Failed, got %s" (P.encode_response r)
      | Result.Error e -> Alcotest.failf "transport: %s" e);
      Alcotest.(check bool) "daemon alive" true (Service.Client.ping ~socket))

(* ---- verdict parity with one-shot checking ----------------------- *)

let source_of_kernel k = Format.asprintf "%a" Ptx.Printer.pp_kernel k

let arg_specs (c : Case.t) =
  List.map (fun _ -> "alloc:256") c.Case.kernel.Ptx.Ast.params

type verdict_or_timeout = V of P.verdict | Timeout

(* One-shot reference: the same printed source through the same
   session-core path the service's serial jobs use. *)
let oneshot_verdict (c : Case.t) source =
  let kernel = Ptx.Parser.kernel_of_string source in
  let layout = c.Case.layout in
  let machine = Simt.Machine.create ~layout () in
  let args = Service.Exec.resolve_args machine kernel (arg_specs c) in
  let inst = Instrument.Pass.instrument ~prune:true ~static:true kernel in
  let result =
    Gpu_runtime.Session.run_stream
      ~max_steps:Service.Exec.default_config.Service.Exec.max_steps ~inst
      ~machine kernel args
  in
  match
    result.Gpu_runtime.Session.sr_machine_result.Simt.Machine.status
  with
  | Simt.Machine.Max_steps _ | Simt.Machine.Deadline _ -> Timeout
  | Simt.Machine.Completed ->
      let report = result.Gpu_runtime.Session.sr_report in
      V (if Barracuda.Report.has_race report then P.Racy else P.Race_free)

let test_bugsuite_parity () =
  (* The counter assertion at the end needs live telemetry (the CLI's
     [serve] turns it on; tests run with it off by default). *)
  let was_enabled = Telemetry.Registry.enabled () in
  Telemetry.Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.Registry.set_enabled was_enabled)
  @@ fun () ->
  with_server ~workers:2 "parity" (fun socket _t ->
      let cases = Bugsuite.Cases.all in
      List.iter
        (fun (c : Case.t) ->
          let source = source_of_kernel c.Case.kernel in
          let layout = c.Case.layout in
          let sub =
            {
              (P.submit_defaults ~kind:P.Check source) with
              P.layout =
                Some
                  ( layout.Vclock.Layout.blocks,
                    layout.Vclock.Layout.threads_per_block,
                    layout.Vclock.Layout.warp_size );
              args = arg_specs c;
            }
          in
          let via_service =
            match Service.Client.submit ~retries:10 ~socket sub with
            | Ok (P.Result { outcome; _ }) -> V outcome.P.verdict
            | Ok (P.Failed { code = "timeout"; _ }) -> Timeout
            | Ok r ->
                Alcotest.failf "case %s: unexpected reply %s" c.Case.name
                  (P.encode_response r)
            | Result.Error e ->
                Alcotest.failf "case %s: transport: %s" c.Case.name e
          in
          if via_service <> oneshot_verdict c source then
            Alcotest.failf "case %s: service and one-shot verdicts differ"
              c.Case.name)
        cases;
      (* Resubmitting a kernel already checked must hit the artifact
         cache, and the hit must show up in the service counters. *)
      let c = List.hd cases in
      let source = source_of_kernel c.Case.kernel in
      let layout = c.Case.layout in
      let sub =
        {
          (P.submit_defaults ~kind:P.Check source) with
          P.layout =
            Some
              ( layout.Vclock.Layout.blocks,
                layout.Vclock.Layout.threads_per_block,
                layout.Vclock.Layout.warp_size );
          args = arg_specs c;
        }
      in
      (match Service.Client.submit ~retries:10 ~socket sub with
      | Ok (P.Result { outcome; _ }) ->
          Alcotest.(check bool) "resubmission hits the cache" true
            outcome.P.cache_hit
      | Ok r -> Alcotest.failf "resubmit: unexpected reply %s" (P.encode_response r)
      | Result.Error e -> Alcotest.failf "resubmit: transport: %s" e);
      (match Service.Client.status ~socket with
      | Ok s ->
          Alcotest.(check bool) "status counts the hit" true (s.P.cache_hits >= 1);
          Alcotest.(check int) "every submission accounted" (List.length cases + 1)
            s.P.submitted
      | Result.Error e -> Alcotest.failf "status: %s" e);
      match Service.Client.metrics ~socket with
      | Ok text ->
          let hit_line =
            String.split_on_char '\n' text
            |> List.find_opt (fun l ->
                   String.length l > 0
                   && l.[0] <> '#'
                   && String.starts_with ~prefix:"barracuda_service_cache_hits"
                        l)
          in
          (match hit_line with
          | Some line ->
              let value =
                match String.rindex_opt line ' ' with
                | Some i ->
                    float_of_string_opt
                      (String.sub line (i + 1) (String.length line - i - 1))
                | None -> None
              in
              Alcotest.(check bool)
                "barracuda_service_cache_hits counter advanced" true
                (match value with Some v -> v >= 1.0 | None -> false)
          | None ->
              Alcotest.fail "barracuda_service_cache_hits missing from metrics")
      | Result.Error e -> Alcotest.failf "metrics: %s" e)

(* ---- predictive jobs --------------------------------------------- *)

let test_predict_over_trace () =
  let c = List.hd Bugsuite.Cases.predictive in
  let layout = c.Case.layout in
  let m = Simt.Machine.create ~layout () in
  let args = c.Case.setup m in
  let ops, _ = Gtrace.Infer.run ~layout m c.Case.kernel args in
  let payload = Gtrace.Serialize.to_string ~layout ops in
  let local = Predict.Analysis.run ~layout ops in
  with_server "predict" (fun socket _t ->
      match
        Service.Client.submit ~socket
          (P.submit_defaults ~kind:P.Predict payload)
      with
      | Ok (P.Result { outcome; _ }) ->
          Alcotest.(check bool) "verdict matches local analysis" true
            (outcome.P.verdict = P.Racy
            = Predict.Analysis.has_race local);
          Alcotest.(check bool)
            "predictive case is recovered from its trace" true
            (outcome.P.verdict = P.Racy);
          Alcotest.(check int) "prediction count matches"
            (Predict.Analysis.predicted_count local)
            outcome.P.predicted
      | Ok r -> Alcotest.failf "unexpected reply %s" (P.encode_response r)
      | Result.Error e -> Alcotest.failf "transport: %s" e)

(* ---- streaming sessions ------------------------------------------ *)

(* Record a case's wire stream locally through the session core; the
   recording is the exact batch feed, so daemon-side replay parity is
   chunking + transport only. *)
let record_case (c : Case.t) =
  let layout = c.Case.layout in
  let machine = Simt.Machine.create ~layout () in
  let args = c.Case.setup machine in
  let buf = Buffer.create 4096 in
  let r =
    Gpu_runtime.Session.run_stream ~capture:buf ~machine c.Case.kernel args
  in
  ( Barracuda.Report.has_race r.Gpu_runtime.Session.sr_report,
    r.Gpu_runtime.Session.sr_records,
    Buffer.contents buf )

let stream_sub (c : Case.t) =
  let layout = c.Case.layout in
  {
    (P.submit_defaults ~kind:P.Check (source_of_kernel c.Case.kernel)) with
    P.layout =
      Some
        ( layout.Vclock.Layout.blocks,
          layout.Vclock.Layout.threads_per_block,
          layout.Vclock.Layout.warp_size );
  }

let ship_chunked s ~chunk bytes =
  let total = String.length bytes in
  let pos = ref 0 in
  while !pos < total do
    let len = min chunk (total - !pos) in
    (match Service.Client.stream_append s (String.sub bytes !pos len) with
    | Ok _ -> ()
    | Result.Error e -> Alcotest.failf "append: %s" e);
    pos := !pos + len
  done

let test_streaming_session () =
  with_server "stream" (fun socket _t ->
      List.iter
        (fun (c : Case.t) ->
          let racy, records, bytes = record_case c in
          match Service.Client.stream_open ~socket (stream_sub c) with
          | Result.Error e -> Alcotest.failf "open: %s" e
          | Ok s ->
              (* split mid-record: 777 is coprime to the cell size *)
              let half = String.length bytes / 2 in
              ship_chunked s ~chunk:777 (String.sub bytes 0 half);
              (match Service.Client.stream_flush s with
              | Ok v ->
                  Alcotest.(check bool)
                    (c.Case.name ^ ": checkpoint is a prefix verdict")
                    true
                    (v.Service.Client.v_records <= records
                    && not v.Service.Client.v_final)
              | Result.Error e -> Alcotest.failf "flush: %s" e);
              ship_chunked s ~chunk:777
                (String.sub bytes half (String.length bytes - half));
              (match Service.Client.stream_close s with
              | Ok v ->
                  Alcotest.(check bool) (c.Case.name ^ ": final") true
                    v.Service.Client.v_final;
                  Alcotest.(check int) (c.Case.name ^ ": all records landed")
                    records v.Service.Client.v_records;
                  Alcotest.(check bool)
                    (c.Case.name ^ ": verdict matches the local batch run")
                    racy
                    (v.Service.Client.v_verdict = P.Racy);
                  Alcotest.(check bool) (c.Case.name ^ ": clean transport")
                    false v.Service.Client.v_degraded
              | Result.Error e -> Alcotest.failf "close: %s" e))
        [ List.hd Bugsuite.Cases.all;
          List.find (fun (c : Case.t) -> c.Case.verdict = Case.Race_free)
            Bugsuite.Cases.all ])

let test_streaming_seat_exhaustion () =
  with_server "seats" (fun socket _t ->
      let c = List.hd Bugsuite.Cases.all in
      let sub = stream_sub c in
      let open_ok () =
        match Service.Client.stream_open ~socket sub with
        | Ok s -> s
        | Result.Error e -> Alcotest.failf "open: %s" e
      in
      (* default config: 2 seats *)
      let a = open_ok () in
      let b = open_ok () in
      (match Service.Client.stream_open ~socket sub with
      | Ok _ -> Alcotest.fail "third session must be rejected"
      | Result.Error e ->
          Alcotest.(check bool) "backpressure names the reason" true
            (String.length e >= 8
            && String.sub e 0 8 = "rejected"));
      (* releasing a seat makes streaming available again *)
      (match Service.Client.stream_close a with
      | Ok v ->
          Alcotest.(check bool) "empty session closes race-free" true
            (v.Service.Client.v_verdict = P.Race_free)
      | Result.Error e -> Alcotest.failf "close: %s" e);
      let c3 = open_ok () in
      Service.Client.stream_abort c3;
      Service.Client.stream_abort b)

let test_streaming_integrity_in_status () =
  (* a corrupted chunk must degrade the session verdict AND surface in
     the daemon's status integrity counters (satellite: previously
     Prometheus-only) *)
  let was_enabled = Telemetry.Registry.enabled () in
  Telemetry.Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.Registry.set_enabled was_enabled)
  @@ fun () ->
  with_server "integrity" (fun socket _t ->
      let c = List.hd Bugsuite.Cases.all in
      let _, records, bytes = record_case c in
      let b = Bytes.of_string bytes in
      (* flip a checksum-covered header byte of the first record *)
      Bytes.set b 12 (Char.chr (Char.code (Bytes.get b 12) lxor 0xff));
      match Service.Client.stream_open ~socket (stream_sub c) with
      | Result.Error e -> Alcotest.failf "open: %s" e
      | Ok s -> (
          ship_chunked s ~chunk:4096 (Bytes.to_string b);
          (match Service.Client.stream_close s with
          | Ok v ->
              Alcotest.(check bool) "degraded" true v.Service.Client.v_degraded;
              Alcotest.(check int) "one corrupt record" 1
                v.Service.Client.v_corrupt;
              Alcotest.(check int) "the rest landed" (records - 1)
                v.Service.Client.v_records
          | Result.Error e -> Alcotest.failf "close: %s" e);
          match Service.Client.status ~socket with
          | Ok st ->
              Alcotest.(check bool) "status surfaces the desync counts" true
                (st.P.integrity_corrupt >= 1)
          | Result.Error e -> Alcotest.failf "status: %s" e))

(* ---- multi-tenant scheduling ------------------------------------- *)

(* A gated exec over a bare scheduler: jobs block while [hold] is set,
   so tests control exactly which jobs are in flight. *)
let gated_scheduler ?(workers = 1) ?(queue_capacity = 64) ?(tenant_quotas = [])
    () =
  let m = Mutex.create () in
  let cv = Condition.create () in
  let running = ref 0 in
  let hold = ref true in
  let order = ref [] in
  let exec ~job (sub : P.submit) =
    Mutex.lock m;
    incr running;
    order := sub.P.payload :: !order;
    Condition.broadcast cv;
    while !hold do
      Condition.wait cv m
    done;
    Mutex.unlock m;
    P.Result { job; outcome = ok_outcome; queue_ms = 0.0; run_ms = 0.0 }
  in
  let sched =
    Service.Scheduler.create
      ~config:
        {
          Service.Scheduler.default_config with
          Service.Scheduler.workers;
          queue_capacity;
          tenant_quotas;
        }
      ~exec ()
  in
  let wait_running n =
    Mutex.lock m;
    while !running < n do
      Condition.wait cv m
    done;
    Mutex.unlock m
  in
  let release () =
    Mutex.lock m;
    hold := false;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  (sched, wait_running, release, order, m)

let tenant_submit sched ~tenant ~payload ~reply =
  Service.Scheduler.submit sched
    {
      (P.submit_defaults ~kind:P.Check payload) with
      P.tenant = Some tenant;
    }
    ~reply

let find_tenant name (tenants : P.tenant_status list) =
  match List.find_opt (fun t -> t.P.t_name = name) tenants with
  | Some t -> t
  | None -> Alcotest.failf "tenant %s missing from status" name

(* Fairness under load: one worker, two tenants with deep backlogs —
   DRR must interleave them ~1:1 regardless of enqueue order, so
   neither tenant's throughput falls below its fair share while the
   other has work queued. *)
let test_tenant_fairness () =
  let sched, wait_running, release, order, m = gated_scheduler () in
  let done_count = ref 0 in
  let reply _ =
    Mutex.lock m;
    incr done_count;
    Mutex.unlock m
  in
  (* Park the worker on a warm-up job so both backlogs queue up
     behind it before any dequeue decision is made. *)
  tenant_submit sched ~tenant:"warm" ~payload:"warm" ~reply;
  wait_running 1;
  for i = 1 to 6 do
    tenant_submit sched ~tenant:"alpha"
      ~payload:(Printf.sprintf "alpha%d" i) ~reply
  done;
  for i = 1 to 6 do
    tenant_submit sched ~tenant:"beta"
      ~payload:(Printf.sprintf "beta%d" i) ~reply
  done;
  release ();
  Service.Scheduler.stop sched;
  (* [order] records pickup order, most recent first. *)
  let pickups = List.rev !order in
  (match pickups with
  | "warm" :: rest ->
      (* In every prefix of the drain, neither tenant may lag the
         other by more than one job: that is exact round-robin, the
         fair share for equal quanta. *)
      let rec scan a b = function
        | [] -> ()
        | p :: rest ->
            let a, b =
              if String.length p >= 5 && String.sub p 0 5 = "alpha" then
                (a + 1, b)
              else (a, b + 1)
            in
            Alcotest.(check bool)
              (Printf.sprintf "fair prefix (%d alpha vs %d beta)" a b)
              true
              (abs (a - b) <= 1);
            scan a b rest
      in
      scan 0 0 rest
  | _ -> Alcotest.fail "warm-up job must run first");
  Alcotest.(check int) "everything completed" 13 !done_count;
  let tenants = Service.Scheduler.tenant_status sched in
  let a = find_tenant "alpha" tenants and b = find_tenant "beta" tenants in
  Alcotest.(check int) "alpha all done" 6 a.P.t_completed;
  Alcotest.(check int) "beta all done" 6 b.P.t_completed

(* Token-bucket admission: burst 2 with a near-zero refill rate admits
   exactly two jobs and rejects the third with reason "tenant_quota"
   and a positive retry hint — while an unquota'd tenant sails
   through. *)
let test_tenant_quota_reject () =
  let quotas =
    [ ("metered", { Service.Scheduler.rate = 0.0001; burst = 2; seats = 0 }) ]
  in
  let sched, wait_running, release, _order, _m =
    gated_scheduler ~workers:1 ~tenant_quotas:quotas ()
  in
  let replies = ref [] in
  let reply r = replies := r :: !replies in
  tenant_submit sched ~tenant:"metered" ~payload:"m1" ~reply;
  wait_running 1;
  tenant_submit sched ~tenant:"metered" ~payload:"m2" ~reply;
  let rejected = ref None in
  tenant_submit sched ~tenant:"metered" ~payload:"m3"
    ~reply:(fun r -> rejected := Some r);
  (match !rejected with
  | Some (P.Rejected { reason; retry_after_ms }) ->
      Alcotest.(check string) "quota reject reason" "tenant_quota" reason;
      Alcotest.(check bool) "positive retry hint" true (retry_after_ms > 0)
  | _ -> Alcotest.fail "third metered job must be rejected synchronously");
  (* Another tenant is untouched by the dry bucket. *)
  let other_rejected = ref false in
  tenant_submit sched ~tenant:"free" ~payload:"f1"
    ~reply:(fun r ->
      match r with P.Rejected _ -> other_rejected := true | _ -> ());
  release ();
  Service.Scheduler.stop sched;
  Alcotest.(check bool) "unquota'd tenant admitted" false !other_rejected;
  let tenants = Service.Scheduler.tenant_status sched in
  let metered = find_tenant "metered" tenants in
  Alcotest.(check int) "metered submitted" 2 metered.P.t_submitted;
  Alcotest.(check int) "metered completed" 2 metered.P.t_completed;
  Alcotest.(check int) "metered rejected" 1 metered.P.t_rejected;
  Alcotest.(check int) "global rejected count" 1
    (Service.Scheduler.counts sched).Service.Scheduler.rejected

(* Seat caps: a tenant capped to 1 concurrent job leaves the second
   worker free for other tenants instead of occupying it. *)
let test_tenant_seat_cap () =
  let quotas =
    [ ("capped", { Service.Scheduler.rate = 0.0; burst = 0; seats = 1 }) ]
  in
  let sched, wait_running, release, _order, _m =
    gated_scheduler ~workers:2 ~tenant_quotas:quotas ()
  in
  let done_all = ref 0 in
  let m2 = Mutex.create () in
  let reply _ =
    Mutex.lock m2;
    incr done_all;
    Mutex.unlock m2
  in
  tenant_submit sched ~tenant:"capped" ~payload:"c1" ~reply;
  tenant_submit sched ~tenant:"capped" ~payload:"c2" ~reply;
  wait_running 1;
  (* Give the second worker every chance to (wrongly) take c2. *)
  Thread.delay 0.1;
  Alcotest.(check int) "only one capped job in flight" 1
    (Service.Scheduler.busy sched);
  let tenants = Service.Scheduler.tenant_status sched in
  let capped = find_tenant "capped" tenants in
  Alcotest.(check int) "capped inflight" 1 capped.P.t_inflight;
  Alcotest.(check int) "capped queued" 1 capped.P.t_queued;
  (* The idle worker still serves other tenants. *)
  tenant_submit sched ~tenant:"free" ~payload:"f1" ~reply;
  wait_running 2;
  Alcotest.(check int) "free tenant runs alongside" 2
    (Service.Scheduler.busy sched);
  release ();
  Service.Scheduler.stop sched;
  Alcotest.(check int) "all three completed" 3 !done_all

(* Gauge hygiene under admission control: queue-depth, busy-worker and
   the per-tenant gauges never go negative and are all zeroed by
   [stop], across quota rejects and completed work alike. *)
let test_tenant_gauge_hygiene () =
  let was_enabled = Telemetry.Registry.enabled () in
  Telemetry.Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.Registry.set_enabled was_enabled)
  @@ fun () ->
  let quotas =
    [ ("metered", { Service.Scheduler.rate = 0.0001; burst = 1; seats = 1 }) ]
  in
  let sched, wait_running, release, _order, _m =
    gated_scheduler ~workers:2 ~tenant_quotas:quotas ()
  in
  let reply _ = () in
  tenant_submit sched ~tenant:"metered" ~payload:"m1" ~reply;
  tenant_submit sched ~tenant:"metered" ~payload:"m2" ~reply;
  (* rejected: bucket dry *)
  tenant_submit sched ~tenant:"free" ~payload:"f1" ~reply;
  tenant_submit sched ~tenant:"free" ~payload:"f2" ~reply;
  wait_running 2;
  let reg = Telemetry.Registry.default in
  let g name tenant =
    Telemetry.Registry.find_gauge ~labels:[ ("tenant", tenant) ] reg name
  in
  Alcotest.(check bool) "queued gauges non-negative mid-flight" true
    (g "barracuda_service_tenant_queued" "metered" >= 0
    && g "barracuda_service_tenant_queued" "free" >= 0);
  Alcotest.(check bool) "inflight gauges non-negative mid-flight" true
    (g "barracuda_service_tenant_inflight" "metered" >= 0
    && g "barracuda_service_tenant_inflight" "free" >= 0);
  release ();
  Service.Scheduler.stop sched;
  List.iter
    (fun tenant ->
      Alcotest.(check int)
        (tenant ^ " queued gauge zero after stop")
        0
        (g "barracuda_service_tenant_queued" tenant);
      Alcotest.(check int)
        (tenant ^ " inflight gauge zero after stop")
        0
        (g "barracuda_service_tenant_inflight" tenant))
    [ "metered"; "free"; Service.Scheduler.default_tenant ];
  Alcotest.(check int) "queue depth zero after stop" 0
    (Telemetry.Registry.find_gauge reg "barracuda_service_queue_depth");
  Alcotest.(check int) "busy workers zero after stop" 0
    (Telemetry.Registry.find_gauge reg "barracuda_service_busy_workers");
  (* Counters (not gauges) carry the history: the reject is visible. *)
  Alcotest.(check int) "reject counter survives stop" 1
    (Telemetry.Registry.find_counter
       ~labels:[ ("tenant", "metered"); ("event", "rejected") ]
       reg "barracuda_service_tenant_jobs_total")

(* End-to-end: a tenant id on the wire shows up in the daemon's status
   reply with per-tenant accounting and latency percentiles. *)
let test_status_tenants_end_to_end () =
  with_server "tenants" (fun socket _t ->
      let sub =
        {
          (P.submit_defaults ~kind:P.Check trivial_ptx) with
          P.tenant = Some "acme";
        }
      in
      (match Service.Client.submit ~socket sub with
      | Ok (P.Result _) -> ()
      | Ok r -> Alcotest.failf "unexpected reply: %s" (P.encode_response r)
      | Result.Error e -> Alcotest.failf "submit: %s" e);
      match Service.Client.status ~socket with
      | Result.Error e -> Alcotest.failf "status: %s" e
      | Ok s ->
          let acme = find_tenant "acme" s.P.tenants in
          Alcotest.(check int) "acme submitted" 1 acme.P.t_submitted;
          Alcotest.(check int) "acme completed" 1 acme.P.t_completed;
          Alcotest.(check int) "acme rejected" 0 acme.P.t_rejected;
          Alcotest.(check bool) "acme p99 sane" true
            (acme.P.t_p99_ms >= acme.P.t_p50_ms && acme.P.t_p50_ms >= 0.0);
          (* The default tenant is pre-seated; no campaign runs here. *)
          ignore (find_tenant Service.Scheduler.default_tenant s.P.tenants);
          Alcotest.(check bool) "no campaign in a bare daemon" true
            (s.P.campaign = None))

let suite =
  [
    Alcotest.test_case "protocol roundtrip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "oversized frame" `Quick test_oversized_frame;
    Alcotest.test_case "oversized frame on daemon" `Quick
      test_oversized_frame_daemon;
    Alcotest.test_case "cache accounting" `Quick test_cache_accounting;
    Alcotest.test_case "queue backpressure" `Quick test_backpressure;
    Alcotest.test_case "ping and status" `Quick test_ping_and_status;
    Alcotest.test_case "crash isolation" `Quick test_crash_isolation;
    Alcotest.test_case "job timeout" `Quick test_job_timeout;
    Alcotest.test_case "bad submissions" `Quick test_bad_submissions;
    Alcotest.test_case "bugsuite parity" `Slow test_bugsuite_parity;
    Alcotest.test_case "predict over trace" `Quick test_predict_over_trace;
    Alcotest.test_case "streaming session end-to-end" `Quick
      test_streaming_session;
    Alcotest.test_case "streaming seat exhaustion" `Quick
      test_streaming_seat_exhaustion;
    Alcotest.test_case "streaming integrity in status" `Quick
      test_streaming_integrity_in_status;
    Alcotest.test_case "tenant fairness (DRR)" `Quick test_tenant_fairness;
    Alcotest.test_case "tenant quota rejects" `Quick test_tenant_quota_reject;
    Alcotest.test_case "tenant seat cap" `Quick test_tenant_seat_cap;
    Alcotest.test_case "tenant gauge hygiene" `Quick
      test_tenant_gauge_hygiene;
    Alcotest.test_case "status tenants end-to-end" `Quick
      test_status_tenants_end_to_end;
    Alcotest.test_case "wide warp layout fails the job" `Quick
      test_wide_warp_fails_job;
  ]
