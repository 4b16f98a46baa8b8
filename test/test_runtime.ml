(* Runtime layer: the record wire format, lock-free queues (including
   under domains), and the end-to-end driver vs direct detection. *)

module Wire = Barracuda.Wire
module Queue = Gpu_runtime.Queue
module Pipeline = Gpu_runtime.Pipeline
module Session = Gpu_runtime.Session
module Report = Barracuda.Report

let ws = 32

(* ---- Records -------------------------------------------------------- *)

let access_kinds =
  Simt.Event.Load :: Simt.Event.Store
  :: List.map
       (fun op -> Simt.Event.Atomic op)
       Ptx.Ast.[ A_add; A_exch; A_cas; A_min; A_max; A_and; A_or; A_xor; A_inc; A_dec ]

(* Test-only decoder: the record at [pos] back into the simulator event
   it was written from (producers only ever write records). *)
let decode ?(values = [||]) buf ~pos =
  let module V = Wire.View in
  let opc = V.opcode buf ~pos in
  let warp = V.warp buf ~pos and insn = V.insn buf ~pos in
  let mask = V.mask buf ~pos in
  if Wire.is_access opc then
    Simt.Event.Access
      {
        warp;
        insn;
        kind = List.find (fun k -> Wire.opcode_of_kind k = opc) access_kinds;
        space = Wire.space_of_code (V.aux buf ~pos);
        mask;
        addrs = Array.init ws (fun lane -> V.addr buf ~pos ~lane);
        values;
        width = V.width buf ~pos;
      }
  else if opc = Wire.op_branch_if then
    Simt.Event.Branch_if
      {
        warp;
        insn;
        then_mask = V.then_mask buf ~pos;
        else_mask = V.else_mask buf ~pos;
      }
  else if opc = Wire.op_branch_else then Simt.Event.Branch_else { warp; mask }
  else if opc = Wire.op_branch_fi then Simt.Event.Branch_fi { warp; mask }
  else if opc = Wire.op_barrier then Simt.Event.Barrier { block = V.aux buf ~pos }
  else if opc = Wire.op_barrier_divergence then
    Simt.Event.Barrier_divergence { warp; insn; mask; expected = V.aux buf ~pos }
  else invalid_arg (Printf.sprintf "decode: bad opcode %d" opc)

(* The static index a producer stamps: the event's own (no remapping). *)
let insn_of = function
  | Simt.Event.Access a -> a.Simt.Event.insn
  | Simt.Event.Branch_if { insn; _ } -> insn
  | _ -> -1

let values_of = function
  | Simt.Event.Access a -> a.Simt.Event.values
  | _ -> [||]

let write ev =
  let buf = Bytes.make Wire.size '\000' in
  if not (Wire.write_event buf ~pos:0 ~insn:(insn_of ev) ev) then
    Alcotest.fail "event should produce a record";
  buf

let sample_events =
  [
    Simt.Event.Access
      {
        warp = 3;
        insn = 17;
        kind = Simt.Event.Store;
        space = Ptx.Ast.Shared;
        mask = 0xDEAD;
        addrs = Array.init ws (fun i -> i * 8);
        values = Array.init ws (fun i -> Int64.of_int i);
        width = 4;
      };
    Simt.Event.Access
      {
        warp = 1;
        insn = 2;
        kind = Simt.Event.Atomic Ptx.Ast.A_cas;
        space = Ptx.Ast.Global;
        mask = 0x1;
        addrs = Array.make ws 0;
        values = Array.make ws 0L;
        width = 8;
      };
    Simt.Event.Branch_if { warp = 0; insn = 5; then_mask = 0xF0; else_mask = 0xF };
    Simt.Event.Branch_else { warp = 2; mask = 0x3 };
    Simt.Event.Branch_fi { warp = 2; mask = 0xFF };
    Simt.Event.Barrier { block = 7 };
    Simt.Event.Barrier_divergence { warp = 4; insn = 9; mask = 0x1; expected = 0xF };
  ]

let test_record_wire_size () =
  (* the paper's 272-byte layout plus the 8-byte integrity prefix *)
  Alcotest.(check int) "wire size" 280 Wire.size;
  List.iter
    (fun ev ->
      Alcotest.(check int) "serialized size" 280 (Bytes.length (write ev)))
    sample_events

let test_record_roundtrip () =
  List.iter
    (fun ev ->
      let img = write ev in
      let again = write (decode ~values:(values_of ev) img ~pos:0) in
      Alcotest.(check bool) "roundtrip" true (Bytes.equal img again))
    sample_events

let test_record_fence_elided () =
  let buf = Bytes.make Wire.size '\000' in
  Alcotest.(check bool) "fences produce no record" false
    (Wire.write_event buf ~pos:0 ~insn:1
       (Simt.Event.Fence { warp = 0; insn = 1; scope = Ptx.Ast.Gl; mask = 1 }));
  Alcotest.(check bool) "kernel completion produces no record" false
    (Wire.write_event buf ~pos:0 ~insn:(-1) Simt.Event.Kernel_done)

let test_record_event_roundtrip () =
  List.iter
    (fun ev ->
      Alcotest.(check bool) "event roundtrip" true
        (decode ~values:(values_of ev) (write ev) ~pos:0 = ev))
    sample_events

(* ---- Wire.View vs the writer --------------------------------------- *)

(* Arbitrary events (not just ones the simulator emits), serialized at
   a non-zero offset inside a larger dirty buffer: every [View]
   accessor must agree field-for-field with the event written. *)
let gen_event =
  QCheck2.Gen.(
    let gen_kind =
      oneofl
        [
          Simt.Event.Load;
          Simt.Event.Store;
          Simt.Event.Atomic Ptx.Ast.A_add;
          Simt.Event.Atomic Ptx.Ast.A_cas;
          Simt.Event.Atomic Ptx.Ast.A_dec;
        ]
    in
    let gen_space = oneofl [ Ptx.Ast.Global; Ptx.Ast.Shared ] in
    let gen_mask = int_range 0 0xFFFF in
    let gen_warp = oneof [ return (-1); int_range 0 4096 ] in
    let gen_insn = oneof [ return (-1); int_range 0 100_000 ] in
    let gen_addrs = array_size (return ws) (int_range 0 0x3FFF_FFFF) in
    oneof
      [
        map3
          (fun (warp, insn) (kind, space, width) (mask, addrs) ->
            Simt.Event.Access
              { warp; insn; kind; space; mask; addrs; values = [||]; width })
          (pair gen_warp gen_insn)
          (triple gen_kind gen_space (oneofl [ 1; 2; 4; 8 ]))
          (pair gen_mask gen_addrs);
        map3
          (fun (warp, insn) then_mask else_mask ->
            Simt.Event.Branch_if { warp; insn; then_mask; else_mask })
          (pair gen_warp gen_insn) gen_mask gen_mask;
        map2 (fun warp mask -> Simt.Event.Branch_else { warp; mask }) gen_warp gen_mask;
        map2 (fun warp mask -> Simt.Event.Branch_fi { warp; mask }) gen_warp gen_mask;
        map (fun block -> Simt.Event.Barrier { block }) (int_range 0 0xFFFF);
        map3
          (fun (warp, insn) mask expected ->
            Simt.Event.Barrier_divergence { warp; insn; mask; expected })
          (pair gen_warp gen_insn) gen_mask (int_range 0 0xFFFF);
      ])

let print_event ev = Format.asprintf "%a" Simt.Event.pp ev

let prop_view_matches_writer =
  QCheck2.Test.make ~name:"Wire.View accessors agree with Wire.write_event"
    ~count:500 ~print:print_event gen_event (fun ev ->
      let pos = Wire.size in
      let buf = Bytes.make (3 * Wire.size) '\xAB' in
      ignore (Wire.write_event buf ~pos ~insn:(insn_of ev) ev);
      let module V = Wire.View in
      match ev with
      | Simt.Event.Access a ->
          V.opcode buf ~pos = Wire.opcode_of_kind a.Simt.Event.kind
          && Wire.space_of_code (V.aux buf ~pos) = a.Simt.Event.space
          && V.width buf ~pos = a.Simt.Event.width
          && V.warp buf ~pos = a.Simt.Event.warp
          && V.insn buf ~pos = a.Simt.Event.insn
          && V.mask buf ~pos = a.Simt.Event.mask
          && Array.for_all
               (fun lane -> V.addr buf ~pos ~lane = a.Simt.Event.addrs.(lane))
               (Array.init (min ws Wire.max_lanes) Fun.id)
      | Simt.Event.Branch_if { warp; insn; then_mask; else_mask } ->
          V.opcode buf ~pos = Wire.op_branch_if
          && V.warp buf ~pos = warp && V.insn buf ~pos = insn
          && V.mask buf ~pos = then_mask lor else_mask
          && V.then_mask buf ~pos = then_mask
          && V.else_mask buf ~pos = else_mask
      | Simt.Event.Branch_else { warp; mask } ->
          V.opcode buf ~pos = Wire.op_branch_else
          && V.warp buf ~pos = warp && V.insn buf ~pos = -1
          && V.mask buf ~pos = mask
      | Simt.Event.Branch_fi { warp; mask } ->
          V.opcode buf ~pos = Wire.op_branch_fi
          && V.warp buf ~pos = warp && V.insn buf ~pos = -1
          && V.mask buf ~pos = mask
      | Simt.Event.Barrier { block } ->
          V.opcode buf ~pos = Wire.op_barrier
          && V.aux buf ~pos = block && V.warp buf ~pos = -1
      | Simt.Event.Barrier_divergence { warp; insn; mask; expected } ->
          V.opcode buf ~pos = Wire.op_barrier_divergence
          && V.warp buf ~pos = warp && V.insn buf ~pos = insn
          && V.mask buf ~pos = mask && V.aux buf ~pos = expected
      | Simt.Event.Fence _ | Simt.Event.Kernel_done -> false)

(* ---- Queue ----------------------------------------------------------- *)

(* Fill a ring slot with a minimal load record whose warp field carries
   the sequence number [i] (queue tests read it back via the view). *)
let fill_payload i buf off =
  Bytes.fill buf off Wire.size '\000';
  Bytes.set_uint8 buf off Barracuda.Wire.magic;
  Bytes.set_uint8 buf (off + 1) Barracuda.Wire.version;
  Bytes.set_uint8 buf (off + 2) Barracuda.Wire.op_load;
  Bytes.set_uint16_le buf (off + 12) (i land 0xFFFF);
  Bytes.set_uint16_le buf (off + 14) ((i lsr 16) land 0xFFFF)

let seq_of buf off = Wire.View.warp buf ~pos:off

let test_queue_fifo () =
  let q = Queue.create ~capacity:8 in
  for i = 0 to 5 do
    Alcotest.(check bool) "push" true (Queue.push_into q (fill_payload i))
  done;
  Alcotest.(check int) "length" 6 (Queue.length q);
  for i = 0 to 5 do
    match Queue.consume q seq_of with
    | Some v -> Alcotest.(check int) (Printf.sprintf "fifo %d" i) i v
    | None -> Alcotest.fail "consume failed"
  done;
  Alcotest.(check bool) "empty" true (Queue.consume q seq_of = None)

let test_queue_full () =
  let q = Queue.create ~capacity:4 in
  for i = 0 to 3 do
    Alcotest.(check bool) "fills" true (Queue.push_into q (fill_payload i))
  done;
  Alcotest.(check bool) "rejects when full" false
    (Queue.push_into q (fill_payload 4));
  ignore (Queue.consume q seq_of);
  Alcotest.(check bool) "space after release" true
    (Queue.push_into q (fill_payload 4));
  Alcotest.(check int) "wraparound accounting" 5 (Queue.pushed q);
  Alcotest.(check int) "high watermark" 4 (Queue.high_watermark q)

let test_queue_inplace_protocol () =
  (* raw reserve/commit/peek/release: the slot peeked is stable until
     released, and offsets wrap around the flat ring *)
  let q = Queue.create ~capacity:2 in
  let w0 = Queue.try_reserve q in
  Alcotest.(check int) "first reservation" 0 w0;
  Alcotest.(check int) "peek before commit" (-1) (Queue.peek q);
  fill_payload 7 (Queue.buffer q) (Queue.offset_of q w0);
  Queue.commit q w0;
  let off = Queue.peek q in
  Alcotest.(check int) "slot offset" (Queue.offset_of q w0) off;
  Alcotest.(check int) "peek is stable" off (Queue.peek q);
  Alcotest.(check int) "payload in place" 7 (seq_of (Queue.buffer q) off);
  Queue.release q;
  Alcotest.(check int) "empty after release" (-1) (Queue.peek q);
  (* wraparound: virtual index 2 lands on slot 0 *)
  ignore (Queue.push_into q (fill_payload 1));
  ignore (Queue.consume q seq_of);
  let w2 = Queue.try_reserve q in
  Alcotest.(check int) "third reservation" 2 w2;
  Alcotest.(check int) "wraps to slot 0" 0 (Queue.offset_of q w2);
  Queue.commit q w2

let test_queue_domains () =
  (* one producer domain, one consumer domain, 10k records *)
  let q = Queue.create ~capacity:64 in
  let n = 10_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          while not (Queue.push_into q (fill_payload i)) do
            Domain.cpu_relax ()
          done
        done)
  in
  let seen = ref 0 in
  let in_order = ref true in
  while !seen < n do
    match Queue.consume q seq_of with
    | Some v ->
        if v <> !seen then in_order := false;
        incr seen
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  Alcotest.(check bool) "all records in order across domains" true !in_order

(* ---- Steady-state allocation ---------------------------------------- *)

let test_steady_state_allocation () =
  (* The record hot path — serialize into a ring slot, commit, feed the
     detector in place, release — must not allocate in steady state on
     a converged workload.  Bound: < 8 minor-heap words per record
     (zero in practice; the slack absorbs incidental boxing if the
     compiler changes). *)
  Telemetry.Registry.set_enabled false;
  let layout = Gen.layout in
  let wsz = layout.Vclock.Layout.warp_size in
  let k = Gen.kernel_of_program [ Gen.Global_store (0, Gen.Const 1) ] in
  let det = Barracuda.Detector.create ~layout k in
  let q = Queue.create ~capacity:64 in
  let buf = Queue.buffer q in
  let addrs = Array.init wsz (fun i -> 4 * i) in
  let values = Array.make wsz 1L in
  let mask = (1 lsl wsz) - 1 in
  let pump n =
    for _ = 1 to n do
      let w = Queue.try_reserve q in
      let pos = Queue.offset_of q w in
      Barracuda.Wire.write_access buf ~pos ~kind:Simt.Event.Store
        ~space:Ptx.Ast.Global ~width:4 ~mask ~warp:0 ~insn:0 ~addrs;
      Barracuda.Wire.seal buf ~pos ~seq:w;
      Queue.commit q w;
      let off = Queue.peek q in
      Barracuda.Detector.feed_record det ~values buf ~pos:off;
      Queue.release q
    done
  in
  pump 512 (* warm up: shadow pages, table growth, lazy telemetry handles *);
  let n = 20_000 in
  let before = Gc.minor_words () in
  pump n;
  let after = Gc.minor_words () in
  let per_record = (after -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "steady-state allocation (%.2f words/record) < 8"
       per_record)
    true
    (per_record < 8.0)

(* ---- End-to-end driver ---------------------------------------------- *)

let race_fingerprint report =
  Report.errors report
  |> List.filter_map (function
       | Report.Race r ->
           Some (r.Report.loc, r.Report.prev_tid, r.Report.cur_tid)
       | Report.Barrier_divergence _ -> None)
  |> List.sort_uniq Stdlib.compare

let detector = { Barracuda.Detector.default_config with max_reports = 100000 }

(* The sealed record stream must be transparent: a detector fed the
   exact event stream the driver forwards (its tee) must agree with the
   detector fed through sealed records.  (Comparing against a separate
   native run would be too strong: instrumentation changes warp
   interleaving, and FastTrack-style detection is schedule-sensitive.) *)
let prop_pipeline_matches_teed_detector =
  QCheck2.Test.make
    ~name:"single-queue pipeline equals a detector fed the same events"
    ~count:150 ~print:Gen.print_program Gen.gen_program (fun prog ->
      let k = Gen.kernel_of_program prog in
      let m = Simt.Machine.create ~layout:Gen.layout () in
      let args = Gen.setup m in
      let direct =
        Barracuda.Detector.create ~config:detector ~layout:Gen.layout k
      in
      let r =
        Session.run_stream ~detector
          ~inst:(Instrument.Pass.instrument ~prune:false ~static:true k)
          ~tee:(Barracuda.Detector.feed direct) ~machine:m k args
      in
      race_fingerprint (Barracuda.Detector.report direct)
      = race_fingerprint r.Session.sr_report)

(* Weaker cross-run property that survives schedule perturbation: a
   race-free program stays race-free through the instrumented check. *)
let prop_pipeline_no_false_positives =
  QCheck2.Test.make
    ~name:"pipeline never invents races on programs the detector clears"
    ~count:100 ~print:Gen.print_program Gen.gen_program (fun prog ->
      let k = Gen.kernel_of_program prog in
      let m1 = Simt.Machine.create ~layout:Gen.layout () in
      let args1 = Gen.setup m1 in
      let det, _ = Barracuda.Detector.run ~machine:m1 k args1 in
      if Report.has_race (Barracuda.Detector.report det) then
        QCheck2.assume_fail ()
      else begin
        let m2 = Simt.Machine.create ~layout:Gen.layout () in
        let args2 = Gen.setup m2 in
        let r =
          Session.run_stream ~detector
            ~inst:(Instrument.Pass.instrument ~prune:true ~static:true k)
            ~machine:m2 k args2
        in
        not (Report.has_race r.Session.sr_report)
      end)

let test_pipeline_backpressure () =
  (* a tiny queue forces producer stalls but must not lose records *)
  let prog = [ Gen.Global_store (0, Gen.Lane_dependent); Gen.Global_load 0 ] in
  let k = Gen.kernel_of_program prog in
  let m = Simt.Machine.create ~layout:Gen.layout () in
  let args = Gen.setup m in
  let sink, _ =
    Pipeline.parallel_sink ~queues:1 ~queue_capacity:2 ~config:detector
      ~layout:Gen.layout k
  in
  let r = Session.run_stream ~sink ~detector ~machine:m k args in
  Alcotest.(check bool) "records flowed" true (r.Session.sr_records > 0);
  Alcotest.(check bool) "race still found" true
    (Report.has_race r.Session.sr_report)

let test_pipeline_instrumented_execution_correct () =
  (* the instrumented kernel must compute the same results *)
  let prog = [ Gen.Store_own_slot ] in
  let k = Gen.kernel_of_program prog in
  let m1 = Simt.Machine.create ~layout:Gen.layout () in
  let args1 = Gen.setup m1 in
  let _ = Simt.Machine.launch m1 k args1 in
  let m2 = Simt.Machine.create ~layout:Gen.layout () in
  let args2 = Gen.setup m2 in
  let _ =
    Session.run_stream
      ~inst:(Instrument.Pass.instrument ~prune:true ~static:true k)
      ~machine:m2 k args2
  in
  let base1 = Int64.to_int args1.(0) and base2 = Int64.to_int args2.(0) in
  let total = Vclock.Layout.total_threads Gen.layout in
  let own_base = 4 * (Gen.words + Gen.sync_words) in
  for t = 0 to total - 1 do
    let addr1 = base1 + own_base + (4 * t) in
    let addr2 = base2 + own_base + (4 * t) in
    Alcotest.(check int64)
      (Printf.sprintf "slot %d" t)
      (Simt.Machine.peek m1 ~addr:addr1 ~width:4)
      (Simt.Machine.peek m2 ~addr:addr2 ~width:4)
  done

let suite =
  [
    Alcotest.test_case "record wire size" `Quick test_record_wire_size;
    Alcotest.test_case "record bytes roundtrip" `Quick test_record_roundtrip;
    Alcotest.test_case "record fence elided" `Quick test_record_fence_elided;
    Alcotest.test_case "record event roundtrip" `Quick test_record_event_roundtrip;
    Alcotest.test_case "queue fifo" `Quick test_queue_fifo;
    Alcotest.test_case "queue full/wrap" `Quick test_queue_full;
    Alcotest.test_case "queue in-place protocol" `Quick
      test_queue_inplace_protocol;
    Alcotest.test_case "queue across domains" `Quick test_queue_domains;
    Alcotest.test_case "steady-state allocation bound" `Quick
      test_steady_state_allocation;
    Alcotest.test_case "pipeline backpressure" `Quick test_pipeline_backpressure;
    Alcotest.test_case "pipeline preserves results" `Quick
      test_pipeline_instrumented_execution_correct;
  ]
  @ List.map Gen.to_alcotest
      [
        prop_view_matches_writer;
        prop_pipeline_matches_teed_detector;
        prop_pipeline_no_false_positives;
      ]
