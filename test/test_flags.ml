(* Flag invariance of [barracuda check]: every flag only adds a hook to
   [Session.run_stream] or picks its sink, so the race set must be
   bitwise the same under each of them, on every bug-suite case.  Also
   the input the wire format cannot carry (warps wider than a record),
   rejected on every path. *)

module Report = Barracuda.Report
module Session = Gpu_runtime.Session

type race_key = {
  loc : Gtrace.Loc.t;
  prev_tid : int;
  prev_kind : Report.access_kind;
  cur_tid : int;
  cur_kind : Report.access_kind;
}

let race_set report =
  Report.errors report
  |> List.filter_map (function
       | Report.Race r ->
           Some
             {
               loc = r.Report.loc;
               prev_tid = r.Report.prev_tid;
               prev_kind = r.Report.prev_kind;
               cur_tid = r.Report.cur_tid;
               cur_kind = r.Report.cur_kind;
             }
       | Report.Barrier_divergence _ -> None)
  |> List.sort_uniq Stdlib.compare

let detector = { Barracuda.Detector.default_config with max_reports = 100000 }

(* What [check] runs for one flag: the original kernel, the default
   serial sink unless [--shards] picks the sharded one. *)
let check_with ?sink ?tee ?capture (c : Bugsuite.Case.t) =
  let layout = c.Bugsuite.Case.layout in
  let machine = Simt.Machine.create ~layout () in
  let args = c.Bugsuite.Case.setup machine in
  let sink = Option.map (fun f -> f layout c.Bugsuite.Case.kernel) sink in
  Session.run_stream ?sink ~detector ?tee ?capture ~machine
    c.Bugsuite.Case.kernel args

let sharded layout kernel =
  Shard.Stream.sink ~config:detector ~layout ~shards:2 kernel

let with_telemetry f =
  Telemetry.Registry.set_enabled true;
  Telemetry.Registry.reset Telemetry.Registry.default;
  Fun.protect ~finally:(fun () -> Telemetry.Registry.set_enabled false) f

let test_flag_invariance () =
  List.iter
    (fun (c : Bugsuite.Case.t) ->
      let name = c.Bugsuite.Case.name in
      let plain = (check_with c).Session.sr_report in
      let expect = race_set plain in
      let same flag (r : Session.stream_result) =
        if race_set r.Session.sr_report <> expect then
          Alcotest.failf "%s: race set differs under %s" name flag;
        Alcotest.(check int)
          (Printf.sprintf "%s: race count under %s" name flag)
          (Report.race_count plain)
          (Report.race_count r.Session.sr_report)
      in
      let infer = Gtrace.Infer.create ~layout:c.Bugsuite.Case.layout c.Bugsuite.Case.kernel in
      same "--dump-trace"
        (check_with ~tee:(fun ev -> ignore (Gtrace.Infer.feed infer ev)) c);
      same "--metrics" (with_telemetry (fun () -> check_with c));
      same "--shards 2" (check_with ~sink:sharded c);
      same "--record" (check_with ~capture:(Buffer.create 4096) c))
    Bugsuite.Cases.all

(* Two verdicts that depend on the driver: a cross-block release chain
   is clean only in device order, and a lock without an acquire fence
   races only when the original kernel runs (the pruned instrumented
   one hides it). *)
let test_known_verdicts () =
  let case name =
    List.find (fun (c : Bugsuite.Case.t) -> c.Bugsuite.Case.name = name)
      Bugsuite.Cases.all
  in
  let races c = Report.race_count (check_with c).Session.sr_report in
  let trc = case "transitive_release_chain" in
  Alcotest.(check int) "transitive_release_chain is race-free" 0 (races trc);
  Alcotest.(check int) "... also under telemetry" 0
    (with_telemetry (fun () -> races trc));
  let lmf = case "lock_missing_acquire_fence" in
  Alcotest.(check int) "lock_missing_acquire_fence: 8 races" 8 (races lmf);
  Alcotest.(check int) "... also sharded" 8
    (Report.race_count (check_with ~sink:sharded lmf).Session.sr_report)

(* A recording made under [--shards 2] is a valid stream: replayed
   through a serial streaming session it gives the same race set. *)
let test_sharded_recording_replays () =
  List.iter
    (fun name ->
      let c =
        List.find
          (fun (c : Bugsuite.Case.t) -> c.Bugsuite.Case.name = name)
          Bugsuite.Cases.all
      in
      let buf = Buffer.create 4096 in
      let r = check_with ~sink:sharded ~capture:buf c in
      let st =
        Session.open_stream ~detector ~layout:c.Bugsuite.Case.layout
          c.Bugsuite.Case.kernel
      in
      Session.feed_chunk st (Buffer.contents buf);
      let p = Session.close_stream st in
      Alcotest.(check int) (name ^ ": every record replayed")
        r.Session.sr_records p.Session.p_records;
      Alcotest.(check bool) (name ^ ": replay is intact") false
        p.Session.p_degraded;
      let replayed =
        Report.race_count r.Session.sr_report = p.Session.p_race_count
      in
      Alcotest.(check bool) (name ^ ": same race count") true replayed)
    [ "lock_missing_acquire_fence"; "transitive_release_chain";
      "rw_shared_inter_warp" ]

(* ---- warps wider than a wire record ------------------------------ *)

let wide = Vclock.Layout.make ~warp_size:48 ~threads_per_block:96 ~blocks:2

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let racy_kernel () =
  Gen.kernel_of_program [ Gen.Global_store (0, Gen.Lane_dependent) ]

let test_wide_warp_rejected () =
  let kernel = racy_kernel () in
  (match Barracuda.Detector.create ~layout:wide kernel with
  | _ -> Alcotest.fail "detector accepted a 48-lane warp"
  | exception Invalid_argument _ -> ());
  let machine = Simt.Machine.create ~layout:wide () in
  let args = Gen.setup machine in
  match Session.run_stream ~machine kernel args with
  | _ -> Alcotest.fail "run_stream accepted a 48-lane warp"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) ("names the limit: " ^ msg) true
        (contains msg "32")

let test_wide_warp_cli () =
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/barracuda_cli.exe"
  in
  let ptx = Filename.temp_file "barracuda-wide" ".ptx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove ptx)
    (fun () ->
      let oc = open_out ptx in
      output_string oc (Ptx.Printer.kernel_to_string (racy_kernel ()));
      close_out oc;
      let run flags =
        Sys.command
          (Printf.sprintf "%s check %s %s >/dev/null 2>&1" (Filename.quote exe)
             flags (Filename.quote ptx))
      in
      Alcotest.(check int) "a racy kernel exits 1 at warp 32" 1
        (run "--warp 32 --tpb 64 --blocks 2");
      Alcotest.(check int) "warp 48 exits 2 (bad input)" 2
        (run "--warp 48 --tpb 96 --blocks 2"))

let suite =
  [
    Alcotest.test_case "bugsuite race sets identical under every check flag"
      `Quick test_flag_invariance;
    Alcotest.test_case "known verdicts hold under every flag" `Quick
      test_known_verdicts;
    Alcotest.test_case "sharded recording replays to the same races" `Quick
      test_sharded_recording_replays;
    Alcotest.test_case "wide warps rejected by the detector" `Quick
      test_wide_warp_rejected;
    Alcotest.test_case "wide warps: check exits 2" `Quick test_wide_warp_cli;
  ]
