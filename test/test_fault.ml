(* Fault injection and resilience: transport integrity (checksums,
   sequence numbers), seeded fault plans through the pipeline, worker
   crash recovery and quarantine in the scheduler, wall-clock
   deadlines, versioned formats, and campaign determinism. *)

module Wire = Barracuda.Wire
module Report = Barracuda.Report
module Detector = Barracuda.Detector
module Session = Gpu_runtime.Session
module Plan = Fault.Plan
module P = Service.Protocol
module Case = Bugsuite.Case

let ws = Gen.layout.Vclock.Layout.warp_size

let sealed_access ?(mask = (1 lsl ws) - 1) ?(warp = 0) ?(insn = 0) ?(seq = 0)
    () =
  let buf = Bytes.make Wire.size '\000' in
  let addrs = Array.init ws (fun i -> 4 * i) in
  Wire.write_access buf ~pos:0 ~kind:Simt.Event.Store ~space:Ptx.Ast.Global
    ~width:4 ~mask ~warp ~insn ~addrs;
  Wire.seal buf ~pos:0 ~seq;
  buf

(* ---- seal / check ------------------------------------------------ *)

let test_seal_check () =
  let buf = sealed_access () in
  Alcotest.(check bool) "sealed record is intact" true
    (Wire.check buf ~pos:0 = Wire.Intact);
  let b = Bytes.copy buf in
  Bytes.set_uint8 b 0 0x42;
  Alcotest.(check bool) "magic" true (Wire.check b ~pos:0 = Wire.Bad_magic);
  let b = Bytes.copy buf in
  Bytes.set_uint8 b 1 (Wire.version + 1);
  Alcotest.(check bool) "version" true
    (Wire.check b ~pos:0 = Wire.Bad_version);
  let b = Bytes.copy buf in
  Bytes.set_uint8 b 30 (Bytes.get_uint8 b 30 lxor 1);
  Alcotest.(check bool) "payload corruption" true
    (Wire.check b ~pos:0 = Wire.Bad_checksum)

(* Any single bit flip that leaves the covered length unchanged must be
   detected — guaranteed structurally by the rotate-XOR checksum.  The
   length-changing bytes (opcode at 2, mask word at 8-11) reshape the
   checksummed stream, so their detection is probabilistic; they are
   pinned by the deterministic sweeps below instead. *)
let prop_single_bit_flip_detected =
  QCheck2.Test.make ~name:"single bit flip in covered region is detected"
    ~count:500
    QCheck2.Gen.(
      tup4 (int_range 1 0xFFFF) (int_range 0 4096) (int_range 0 100_000)
        (pair (int_range 0 0xFFFFFF) (int_range 0 7)))
    (fun (mask, warp, insn, (byte_r, bit)) ->
      let buf = sealed_access ~mask ~warp ~insn ~seq:7 () in
      let covered = Wire.covered_bytes buf ~pos:0 in
      let eligible =
        [ 0; 1; 3; 4; 5; 6; 7 ]
        @ List.init 12 (fun i -> 12 + i)
        @ List.init covered (fun i -> Wire.header_size + i)
      in
      let byte = List.nth eligible (byte_r mod List.length eligible) in
      Bytes.set_uint8 buf byte (Bytes.get_uint8 buf byte lxor (1 lsl bit));
      Wire.check buf ~pos:0 <> Wire.Intact)

let test_mask_bit_flips_detected () =
  (* Mask flips can change the covered-region length itself; the
     avalanched length prefix in the checksum stream catches them.
     Deterministic sweep over all 32 mask bits of a fixed record. *)
  for bit = 0 to 31 do
    let buf = sealed_access ~mask:0x00FF ~seq:1 () in
    let byte = 8 + (bit / 8) in
    Bytes.set_uint8 buf byte (Bytes.get_uint8 buf byte lxor (1 lsl (bit mod 8)));
    Alcotest.(check bool)
      (Printf.sprintf "mask bit %d flip detected" bit)
      true
      (Wire.check buf ~pos:0 <> Wire.Intact)
  done

let test_opcode_bit_flips_detected () =
  (* The opcode also drives the covered length (access vs control);
     sweep all 8 opcode bits of a fixed record. *)
  for bit = 0 to 7 do
    let buf = sealed_access ~seq:1 () in
    Bytes.set_uint8 buf 2 (Bytes.get_uint8 buf 2 lxor (1 lsl bit));
    Alcotest.(check bool)
      (Printf.sprintf "opcode bit %d flip detected" bit)
      true
      (Wire.check buf ~pos:0 <> Wire.Intact)
  done

(* ---- sequence accounting ----------------------------------------- *)

let mk_detector () =
  let k = Gen.kernel_of_program [ Gen.Global_store (0, Gen.Const 1) ] in
  Detector.create ~layout:Gen.layout k

let test_seq_gap_stale_corrupt () =
  let det = mk_detector () in
  let values = Array.make ws 1L in
  let feed ~seq =
    let buf = sealed_access ~seq () in
    Detector.feed_record_from det ~src:0 ~values buf ~pos:0
  in
  feed ~seq:0;
  let i = Report.integrity (Detector.report det) in
  Alcotest.(check bool) "clean start" true
    (i.Report.corrupt = 0 && i.Report.gaps = 0 && i.Report.stale = 0);
  Alcotest.(check bool) "not degraded yet" false
    (Report.degraded (Detector.report det));
  feed ~seq:5;
  (* expected 1, got 5: four records lost *)
  let i = Report.integrity (Detector.report det) in
  Alcotest.(check int) "gap of four" 4 i.Report.gaps;
  feed ~seq:5;
  (* replayed: stale, skipped *)
  let i = Report.integrity (Detector.report det) in
  Alcotest.(check int) "stale duplicate" 1 i.Report.stale;
  let buf = sealed_access ~seq:6 () in
  Bytes.set_uint8 buf 40 (Bytes.get_uint8 buf 40 lxor 4);
  Detector.feed_record_from det ~src:0 ~values buf ~pos:0;
  let i = Report.integrity (Detector.report det) in
  Alcotest.(check int) "corrupt record" 1 i.Report.corrupt;
  Alcotest.(check bool) "degraded" true (Report.degraded (Detector.report det))

let test_per_src_sequences () =
  (* the same seq on different sources is not a duplicate *)
  let det = mk_detector () in
  let values = Array.make ws 1L in
  let buf = sealed_access ~seq:0 () in
  Detector.feed_record_from det ~src:0 ~values buf ~pos:0;
  Detector.feed_record_from det ~src:1 ~values buf ~pos:0;
  let i = Report.integrity (Detector.report det) in
  Alcotest.(check bool) "independent streams" true
    (i.Report.stale = 0 && i.Report.gaps = 0)

let test_orphaned_fi_absorbed () =
  (* a branch_fi whose branch_if was lost upstream must be skipped and
     accounted, not pop the root reconvergence frame or raise *)
  let det = mk_detector () in
  let buf = Bytes.make Wire.size '\000' in
  Wire.write_branch_fi buf ~pos:0 ~warp:0 ~insn:0 ~mask:((1 lsl ws) - 1);
  Wire.seal buf ~pos:0 ~seq:0;
  Detector.feed_record_from det ~src:0 ~values:[||] buf ~pos:0;
  let i = Report.integrity (Detector.report det) in
  Alcotest.(check int) "desync counted" 1 i.Report.desync;
  Alcotest.(check bool) "degraded" true (Report.degraded (Detector.report det))

let test_integrity_check_disabled () =
  let k = Gen.kernel_of_program [ Gen.Global_store (0, Gen.Const 1) ] in
  let det =
    Detector.create
      ~config:{ Detector.default_config with check_integrity = false }
      ~layout:Gen.layout k
  in
  let values = Array.make ws 1L in
  let buf = sealed_access ~seq:99 () in
  (* unsealed garbage seq, still processed; no accounting *)
  Detector.feed_record_from det ~src:0 ~values buf ~pos:0;
  Detector.feed_record_from det ~src:0 ~values buf ~pos:0;
  Alcotest.(check bool) "no degradation tracking" false
    (Report.degraded (Detector.report det))

(* ---- transport faults through the driver ------------------------- *)

let racy_prog = [ Gen.Global_store (0, Gen.Lane_dependent); Gen.Global_load 0 ]

let run_with_plan ?(prog = racy_prog) plan =
  let k = Gen.kernel_of_program prog in
  let m = Simt.Machine.create ~layout:Gen.layout () in
  let args = Gen.setup m in
  let r =
    Session.run_stream ~fault:plan
      ~detector:{ Detector.default_config with max_reports = 100_000 }
      ~inst:(Instrument.Pass.instrument ~prune:true ~static:true k)
      ~machine:m k args
  in
  r.Session.sr_report

let test_drop_plan_degrades () =
  let plan = Plan.make { Plan.none with Plan.seed = 7; drop = 0.3 } in
  let report = run_with_plan plan in
  let inj = Plan.injected plan in
  Alcotest.(check bool) "drops injected" true (inj.Plan.drops > 0);
  Alcotest.(check bool) "losses surfaced as gaps" true
    ((Report.integrity report).Report.gaps > 0);
  Alcotest.(check bool) "degraded" true (Report.degraded report)

let test_duplicate_plan_degrades () =
  let plan = Plan.make { Plan.none with Plan.seed = 8; duplicate = 0.4 } in
  let report = run_with_plan plan in
  let inj = Plan.injected plan in
  Alcotest.(check bool) "dups injected" true (inj.Plan.dups > 0);
  Alcotest.(check bool) "dups surfaced as stale" true
    ((Report.integrity report).Report.stale > 0)

let test_delay_plan_degrades () =
  let plan =
    Plan.make { Plan.none with Plan.seed = 19; delay = 0.4; delay_hold = 2 }
  in
  let report = run_with_plan plan in
  let inj = Plan.injected plan in
  Alcotest.(check bool) "delays injected" true (inj.Plan.delays > 0);
  let i = Report.integrity report in
  Alcotest.(check bool) "reorder surfaced" true
    (i.Report.gaps > 0 && i.Report.stale > 0);
  Alcotest.(check bool) "degraded" true (Report.degraded report)

let test_flip_plan_never_silent () =
  (* bit flips may land on uncovered (stale-lane) bytes and stay
     harmless, but a verdict change without the degraded flag is the
     one forbidden outcome *)
  let baseline = Report.has_race (run_with_plan (Plan.make Plan.none)) in
  let plan = Plan.make { Plan.none with Plan.seed = 10; bit_flip = 0.5 } in
  let report = run_with_plan plan in
  let inj = Plan.injected plan in
  Alcotest.(check bool) "flips injected" true (inj.Plan.flips > 0);
  Alcotest.(check bool) "no silent wrong verdict" true
    (Bool.equal (Report.has_race report) baseline || Report.degraded report)

let test_fault_plan_deterministic () =
  let run seed =
    let plan =
      Plan.make
        { Plan.none with Plan.seed; bit_flip = 0.1; drop = 0.1; duplicate = 0.1 }
    in
    let report = run_with_plan plan in
    let i = Report.integrity report in
    (Plan.injected plan, i.Report.corrupt, i.Report.gaps, i.Report.stale)
  in
  Alcotest.(check bool) "same seed, same injections" true (run 3 = run 3);
  Alcotest.(check bool) "different seed, different stream" true
    (run 3 <> run 4)

(* ---- machine faults ---------------------------------------------- *)

let test_machine_faults_applied () =
  let plan =
    Plan.make
      { Plan.none with Plan.seed = 5; reg_flips = 8; fault_window = 8 }
  in
  let report = run_with_plan plan in
  ignore (Report.has_race report);
  let inj = Plan.injected plan in
  Alcotest.(check bool) "register flips applied" true
    (inj.Plan.reg_flips_applied > 0 && inj.Plan.reg_flips_applied <= 8)

(* ---- wall-clock deadline ----------------------------------------- *)

let test_deadline_stops_spin () =
  let b = Ptx.Builder.create ~params:[ "out" ] "spin" in
  let l = Ptx.Builder.fresh_label b in
  Ptx.Builder.place_label b l;
  Ptx.Builder.bra ~uni:true b l;
  let k = Ptx.Builder.finish b in
  let m = Simt.Machine.create ~layout:Gen.layout () in
  let base = Simt.Machine.alloc_global m 16 in
  let deadline_ns = Int64.add (Telemetry.Clock.now_ns ()) 50_000_000L in
  let r =
    Simt.Machine.launch ~max_steps:max_int ~deadline_ns m k
      [| Int64.of_int base |]
  in
  match r.Simt.Machine.status with
  | Simt.Machine.Deadline _ -> ()
  | Simt.Machine.Completed -> Alcotest.fail "spin completed?!"
  | Simt.Machine.Max_steps _ -> Alcotest.fail "step budget hit first"

(* ---- worker crash recovery --------------------------------------- *)

let oneshot_verdict (case : Case.t) =
  let machine = Simt.Machine.create ~layout:case.Case.layout () in
  let args = case.Case.setup machine in
  let det, _ = Detector.run ~machine case.Case.kernel args in
  Report.has_race (Detector.report det)

let scheduler_with_cases ~plan cases =
  let by_name = Hashtbl.create 16 in
  List.iter (fun (c : Case.t) -> Hashtbl.replace by_name c.Case.name c) cases;
  let exec ~job (sub : P.submit) =
    match Hashtbl.find_opt by_name sub.P.payload with
    | None -> P.Failed { job; code = "bad_request"; message = "no such case" }
    | Some case ->
        let race = oneshot_verdict case in
        P.Result
          {
            job;
            outcome =
              {
                P.verdict = (if race then P.Racy else P.Race_free);
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
              };
            queue_ms = 0.0;
            run_ms = 0.0;
          }
  in
  Service.Scheduler.create
    ~config:
      {
        Service.Scheduler.default_config with
        Service.Scheduler.workers = 2;
        fault = Some plan;
      }
    ~exec ()

let submit_and_collect sched (cases : Case.t list) =
  let n = List.length cases in
  let lock = Mutex.create () in
  let replies = Array.make n None in
  List.iteri
    (fun i (c : Case.t) ->
      Service.Scheduler.submit sched
        (P.submit_defaults ~kind:P.Check c.Case.name) ~reply:(fun resp ->
          Mutex.lock lock;
          replies.(i) <- Some resp;
          Mutex.unlock lock))
    cases;
  Service.Scheduler.stop sched;
  replies

let test_crash_recovery_parity () =
  (* jobs 1 and 3 kill their worker at pickup; the watchdog respawns
     and the requeued jobs must come back with verdicts matching
     one-shot checking *)
  let cases = List.filteri (fun i _ -> i < 6) Bugsuite.Cases.all in
  let plan =
    Plan.make { Plan.none with Plan.seed = 1; crash_once_jobs = [ 1; 3 ] }
  in
  let sched = scheduler_with_cases ~plan cases in
  let replies = submit_and_collect sched cases in
  List.iteri
    (fun i (c : Case.t) ->
      match replies.(i) with
      | Some (P.Result { outcome; _ }) ->
          Alcotest.(check bool)
            (Printf.sprintf "parity for %s" c.Case.name)
            (oneshot_verdict c)
            (outcome.P.verdict = P.Racy)
      | other ->
          Alcotest.failf "case %s: expected a result, got %s" c.Case.name
            (match other with
            | None -> "no reply"
            | Some r -> P.encode_response r))
    cases;
  let counts = Service.Scheduler.counts sched in
  Alcotest.(check int) "two workers respawned" 2
    counts.Service.Scheduler.workers_restarted;
  Alcotest.(check int) "nothing quarantined" 0
    counts.Service.Scheduler.quarantined;
  Alcotest.(check int) "all jobs completed" (List.length cases)
    counts.Service.Scheduler.completed;
  Alcotest.(check bool) "crashes recorded on the plan" true
    ((Plan.injected plan).Plan.crashes = 2)

let test_poison_quarantine () =
  let cases = [ List.hd Bugsuite.Cases.all ] in
  let plan = Plan.make { Plan.none with Plan.seed = 2; poison_jobs = [ 1 ] } in
  let sched = scheduler_with_cases ~plan cases in
  let replies = submit_and_collect sched cases in
  (match replies.(0) with
  | Some (P.Failed { code; message; _ }) ->
      Alcotest.(check string) "quarantine code" "quarantined" code;
      Alcotest.(check bool) "message mentions quarantine" true
        (String.length message > 0)
  | other ->
      Alcotest.failf "expected quarantine, got %s"
        (match other with
        | None -> "no reply"
        | Some r -> P.encode_response r));
  let counts = Service.Scheduler.counts sched in
  Alcotest.(check int) "one quarantined" 1
    counts.Service.Scheduler.quarantined;
  (* initial attempt + max_job_restarts retries, each crashing a worker *)
  Alcotest.(check int) "three respawns" 3
    counts.Service.Scheduler.workers_restarted;
  Alcotest.(check int) "counted as failed" 1 counts.Service.Scheduler.failed

(* ---- versioned formats ------------------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_trace_version_rejected () =
  match
    Gtrace.Serialize.of_string
      "# barracuda-trace v9 warp_size=4 threads_per_block=8 blocks=2\n"
  with
  | _ -> Alcotest.fail "stale trace version accepted"
  | exception Gtrace.Serialize.Parse_error { message; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "names both versions: %s" message)
        true
        (contains message "version 9")

let test_record_version_rejected () =
  (* no decoder exists to accept a future format: the detector's
     integrity check refuses the record and accounts for it *)
  let buf = sealed_access () in
  Bytes.set_uint8 buf 1 (Wire.version + 1);
  Alcotest.(check bool) "check names the version" true
    (Wire.check buf ~pos:0 = Wire.Bad_version);
  let det = mk_detector () in
  Detector.feed_record det ~values:[||] buf ~pos:0;
  let report = Detector.report det in
  Alcotest.(check int) "refused as corrupt" 1
    (Report.integrity report).Report.corrupt;
  Alcotest.(check bool) "degraded" true (Report.degraded report)

(* ---- campaign ----------------------------------------------------- *)

let test_campaign_quick_deterministic () =
  let run () =
    Campaign.run ~config:{ Campaign.seed = 42; quick = true; trials = 1 } ()
  in
  let a = run () and b = run () in
  Alcotest.(check string) "bitwise reproducible" (Campaign.to_json a)
    (Campaign.to_json b);
  Alcotest.(check bool) "no silent corruption, service healed" true
    (Campaign.ok a)

let suite =
  [
    Alcotest.test_case "seal and check" `Quick test_seal_check;
    Alcotest.test_case "mask bit flips detected" `Quick
      test_mask_bit_flips_detected;
    Alcotest.test_case "opcode bit flips detected" `Quick
      test_opcode_bit_flips_detected;
    Alcotest.test_case "seq gap/stale/corrupt accounting" `Quick
      test_seq_gap_stale_corrupt;
    Alcotest.test_case "per-src sequences" `Quick test_per_src_sequences;
    Alcotest.test_case "orphaned branch_fi absorbed" `Quick
      test_orphaned_fi_absorbed;
    Alcotest.test_case "integrity check disabled" `Quick
      test_integrity_check_disabled;
    Alcotest.test_case "drop plan degrades" `Quick test_drop_plan_degrades;
    Alcotest.test_case "duplicate plan degrades" `Quick
      test_duplicate_plan_degrades;
    Alcotest.test_case "delay plan degrades" `Quick test_delay_plan_degrades;
    Alcotest.test_case "flips never silently wrong" `Quick
      test_flip_plan_never_silent;
    Alcotest.test_case "fault plans are seeded" `Quick
      test_fault_plan_deterministic;
    Alcotest.test_case "machine faults applied" `Quick
      test_machine_faults_applied;
    Alcotest.test_case "deadline stops a spin" `Quick test_deadline_stops_spin;
    Alcotest.test_case "crash recovery parity" `Quick
      test_crash_recovery_parity;
    Alcotest.test_case "poison job quarantined" `Quick test_poison_quarantine;
    Alcotest.test_case "trace version rejected" `Quick
      test_trace_version_rejected;
    Alcotest.test_case "record version rejected" `Quick
      test_record_version_rejected;
    Alcotest.test_case "campaign determinism" `Quick
      test_campaign_quick_deterministic;
  ]
  @ List.map Gen.to_alcotest [ prop_single_bit_flip_detected ]
