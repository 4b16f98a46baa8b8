(* Flag invariance of [barracuda check]: every flag only adds a hook to
   [Session.run_stream], so the race set must be bitwise the same under
   each of them, on every bug-suite case.  Also the inputs [check]
   refuses with exit 2: warps wider than a wire record, and argument
   specs that cannot name a buffer or a value. *)

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

(* What [check] runs for one flag: the original kernel through the
   serial sink. *)
let check_with ?tee ?capture (c : Bugsuite.Case.t) =
  let machine = Simt.Machine.create ~layout:c.Bugsuite.Case.layout () in
  let args = c.Bugsuite.Case.setup machine in
  Session.run_stream ~detector ?tee ?capture ~machine c.Bugsuite.Case.kernel
    args

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
      same "--record" (check_with ~capture:(Buffer.create 4096) c))
    Bugsuite.Cases.all

(* Two verdicts that depend on the driver: a cross-block release chain
   is clean only in device order, and a lock without an acquire fence
   keeps all 8 of its races. *)
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
  Alcotest.(check int) "lock_missing_acquire_fence: 8 races" 8 (races lmf)

(* The sink and the detector count the same stream: on a fault-free run
   every record the sink ingests is processed by the detector exactly
   once, so [sr_stats.records_processed] equals [sr_records]. *)
let test_record_counts_agree () =
  List.iter
    (fun (c : Bugsuite.Case.t) ->
      let r = check_with c in
      Alcotest.(check int)
        (c.Bugsuite.Case.name ^ ": detector records = sink records")
        r.Session.sr_records
        r.Session.sr_stats.Barracuda.Detector.records_processed)
    Bugsuite.Cases.all

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

(* Run the built [barracuda check] on [kernel] under each flag string
   in turn; [f] gets the exit code and stderr of each run. *)
let with_cli_check kernel f =
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/barracuda_cli.exe"
  in
  let ptx = Filename.temp_file "barracuda-cli" ".ptx" in
  let err = Filename.temp_file "barracuda-cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove ptx; Sys.remove err)
    (fun () ->
      let oc = open_out ptx in
      output_string oc (Ptx.Printer.kernel_to_string kernel);
      close_out oc;
      f (fun flags ->
          let code =
            Sys.command
              (Printf.sprintf "%s check %s %s >/dev/null 2>%s"
                 (Filename.quote exe) flags (Filename.quote ptx)
                 (Filename.quote err))
          in
          (code, In_channel.with_open_text err In_channel.input_all)))

let test_wide_warp_cli () =
  with_cli_check (racy_kernel ()) (fun run ->
      Alcotest.(check int) "a racy kernel exits 1 at warp 32" 1
        (fst (run "--warp 32 --tpb 64 --blocks 2"));
      Alcotest.(check int) "warp 48 exits 2 (bad input)" 2
        (fst (run "--warp 48 --tpb 96 --blocks 2")))

(* [check] shares the daemon's argument parser: a negative size would
   overlap the next buffer (spurious races), and a non-number is not a
   size at all, so both are bad input. *)
let test_bad_arg_spec_cli () =
  let kernel = Gen.kernel_of_program [ Gen.Store_own_slot ] in
  with_cli_check kernel (fun run ->
      Alcotest.(check int) "a race-free kernel exits 0" 0
        (fst (run "--arg alloc:4096"));
      List.iter
        (fun spec ->
          let code, err = run ("--arg " ^ spec) in
          Alcotest.(check int) (spec ^ " exits 2") 2 code;
          Alcotest.(check bool)
            (spec ^ " is named: " ^ err)
            true
            (contains err (Printf.sprintf "bad argument spec %S" spec)))
        [ "alloc:-8"; "alloc:abc"; "int:x" ])

let suite =
  [
    Alcotest.test_case "bugsuite race sets identical under every check flag"
      `Quick test_flag_invariance;
    Alcotest.test_case "known verdicts hold under every flag" `Quick
      test_known_verdicts;
    Alcotest.test_case "detector and sink record counts agree" `Quick
      test_record_counts_agree;
    Alcotest.test_case "wide warps rejected by the detector" `Quick
      test_wide_warp_rejected;
    Alcotest.test_case "wide warps: check exits 2" `Quick test_wide_warp_cli;
    Alcotest.test_case "bad argument specs: check exits 2" `Quick
      test_bad_arg_spec_cli;
  ]
