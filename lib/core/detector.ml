module Layout = Vclock.Layout
module Mut = Vclock.Cvc.Mut
module Loc = Gtrace.Loc
module Op = Gtrace.Op

(* Detection telemetry: live totals across all detector instances.
   [checks] counts thread-level access checks; the epoch/vc pair
   splits ordering comparisons into the epoch fast path versus full
   vector-clock scans (the compression the paper's §4.3.1 is about);
   [races] counts raw race observations before report deduplication.
   [records_inplace] counts records consumed directly from a wire
   view ([feed_record]) — the in-place transport path — against the
   pipeline-level fallback-decode counter maintained by the runtime. *)
let m_checks =
  lazy
    (Telemetry.Registry.counter
       ~help:"Thread-level access checks performed"
       Telemetry.Registry.default "barracuda_detector_checks_total")

let m_records =
  lazy
    (Telemetry.Registry.counter
       ~help:"Warp-level records processed by the detector"
       Telemetry.Registry.default "barracuda_detector_records_total")

let m_races =
  lazy
    (Telemetry.Registry.counter
       ~help:"Race observations (before report deduplication)"
       Telemetry.Registry.default "barracuda_detector_races_total")

let m_epoch_fast =
  lazy
    (Telemetry.Registry.counter
       ~help:"Ordering checks answered by the epoch fast path"
       Telemetry.Registry.default "barracuda_detector_epoch_fast_total")

let m_vc_full =
  lazy
    (Telemetry.Registry.counter
       ~help:"Ordering checks requiring a full vector-clock scan"
       Telemetry.Registry.default "barracuda_detector_vc_full_total")

let m_inplace =
  lazy
    (Telemetry.Registry.counter
       ~help:"Records consumed in place from a wire view (feed_record)"
       Telemetry.Registry.default "barracuda_pipeline_records_inplace_total")

let sp_feed_record = lazy (Telemetry.Span.create "detector.feed_record")

(* Transport-integrity accounting: anomalies the in-place feed path
   absorbed instead of crashing or silently mis-detecting. *)
let m_int_corrupt =
  lazy
    (Telemetry.Registry.counter
       ~help:"Wire records failing magic/version/checksum validation"
       Telemetry.Registry.default "barracuda_transport_integrity_corrupt_total")

let m_int_gap =
  lazy
    (Telemetry.Registry.counter
       ~help:"Records lost between consecutive producer sequence numbers"
       Telemetry.Registry.default "barracuda_transport_integrity_gap_total")

let m_int_stale =
  lazy
    (Telemetry.Registry.counter
       ~help:"Duplicate or out-of-date wire records skipped"
       Telemetry.Registry.default "barracuda_transport_integrity_stale_total")

let m_int_desync =
  lazy
    (Telemetry.Registry.counter
       ~help:"Branch else/fi records orphaned by an upstream loss, skipped"
       Telemetry.Registry.default "barracuda_transport_integrity_desync_total")

type config = {
  max_reports : int;
  filter_same_value : bool;
  shadow_granularity : int;
  check_integrity : bool;
}

let default_config =
  {
    max_reports = 1000;
    filter_same_value = true;
    shadow_granularity = 1;
    check_integrity = true;
  }

type stats = {
  accesses_checked : int;
  records_processed : int;
  ptvc_converged : int;
  ptvc_diverged : int;
  ptvc_nested : int;
  ptvc_sparse : int;
  shadow_pages : int;
  shadow_cells : int;
  shadow_bytes : int;
  sync_locations : int;
  ptvc_bytes : int;
  full_vc_bytes : int;
}

(* Counters are atomics and the warp-level record id is threaded
   through each feed call explicitly: [feed_record] may be
   invoked from one host domain per queue (§4.3).  Per-warp clock state
   needs no lock because each thread block logs to exactly one queue,
   so one domain owns each warp; shadow cells carry the paper's
   per-location lock. *)
type t = {
  layout : Layout.t;
  config : config;
  roles : Gtrace.Roles.t array;
  warps : Warp_clocks.t array;
  shadow : Shadow.t;
  sync : Sync_loc.t;
  report : Report.t;
  record_id : int Atomic.t; (* unique id per warp-level event *)
  accesses : int Atomic.t;
  records : int Atomic.t;
  census : int Atomic.t array; (* converged/diverged/nested/sparse *)
  seq_next : int Atomic.t array; (* per-producer expected sequence number *)
  stage : Bytes.t; (* [feed]'s serialization buffer *)
  owns : (Ptx.Ast.space -> int -> int -> bool) option;
      (* shadow-cell ownership predicate for sharded detection: when
         present, only cells it accepts are checked (and their pages
         materialized).  Warp clocks and sync state still evolve over
         the full record stream, so a sharded detector's clock state is
         bit-identical to an unsharded one. *)
}

(* Producer queues are indexed 0..n-1; each src slot is only ever
   advanced by the one consumer domain that owns that queue. *)
let max_srcs = 64

let no_values : int64 array = [||]

(* Forced by [create], on the creating domain: consumer domains (the
   parallel sink, shard engines) feed concurrently, and two domains
   forcing one unforced lazy at once raise [CamlinternalLazy.Undefined]. *)
let force_handles () =
  List.iter
    (fun m -> ignore (Lazy.force m))
    [ m_checks; m_records; m_races; m_epoch_fast; m_vc_full; m_inplace;
      m_int_corrupt; m_int_gap; m_int_stale; m_int_desync ];
  ignore (Lazy.force sp_feed_record)

let create ?(config = default_config) ?owns ~layout kernel =
  force_handles ();
  if layout.Layout.warp_size > Wire.max_lanes then
    invalid_arg
      (Printf.sprintf
         "warp size %d exceeds the %d lanes a wire record carries"
         layout.Layout.warp_size Wire.max_lanes);
  {
    layout;
    config;
    stage = Bytes.create Wire.size;
    owns;
    roles = Gtrace.Roles.classify kernel;
    warps =
      Array.init (Layout.total_warps layout) (fun warp ->
          Warp_clocks.create layout ~warp);
    shadow = Shadow.create ~granularity:config.shadow_granularity ();
    sync = Sync_loc.create layout;
    report = Report.create ~max_reports:config.max_reports ~layout ();
    record_id = Atomic.make 0;
    accesses = Atomic.make 0;
    records = Atomic.make 0;
    census = Array.init 4 (fun _ -> Atomic.make 0);
    seq_next = Array.init max_srcs (fun _ -> Atomic.make 0);
  }

let report t = t.report

(* [c@u <= C_lane?] via the compressed clock layers.  Epochs arrive as
   bare (clock, tid) ints — the boxed [Epoch.t] is gone from this
   path. *)
let epoch_ordered ~wc ~lane ~clock ~tid =
  Telemetry.Metric.counter_incr (Lazy.force m_epoch_fast);
  clock <= Warp_clocks.entry wc ~lane ~tid

(* Race-report sites rebuild the cell's location from scalars; this is
   the only place the hot path touches [Loc.t]. *)
let cell_loc t ~space ~region ~index =
  Loc.make ~space ~region ~addr:(index * Shadow.granularity t.shadow)

let check_write t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index ~cur_kind
    ~value (cell : Shadow.cell) =
  if
    not
      (epoch_ordered ~wc ~lane ~clock:cell.Shadow.write_clock
         ~tid:cell.Shadow.write_tid)
  then begin
    let same_instruction = cell.Shadow.write_record = rid in
    let filtered =
      t.config.filter_same_value && same_instruction
      && cur_kind = Report.Write
      && (not cell.Shadow.write_atomic)
      && Int64.equal cell.Shadow.write_value value
    in
    if not filtered then begin
      Telemetry.Metric.counter_incr (Lazy.force m_races);
      Report.add_race t.report ~prev_insn:cell.Shadow.write_insn ~cur_insn:insn
        ~loc:(cell_loc t ~space ~region ~index)
        ~prev_tid:cell.Shadow.write_tid
        ~prev_kind:
          (if cell.Shadow.write_atomic then Report.Atomic_rmw else Report.Write)
        ~cur_tid:tid ~cur_kind ~same_instruction
    end
  end

let check_reads t ~wc ~lane ~tid ~insn ~space ~region ~index ~cur_kind
    (cell : Shadow.cell) =
  if cell.Shadow.read_shared then begin
    Telemetry.Metric.counter_incr (Lazy.force m_vc_full);
    match cell.Shadow.read_vc with
    | None -> ()
    | Some m ->
        Mut.iter_points
          (fun u cu ->
            if cu > Warp_clocks.entry wc ~lane ~tid:u then begin
              Telemetry.Metric.counter_incr (Lazy.force m_races);
              (* [read_insn] is the latest reader's instruction, not
                 necessarily thread [u]'s — a deliberate approximation
                 (see {!Shadow.cell}). *)
              Report.add_race t.report ~prev_insn:cell.Shadow.read_insn
                ~cur_insn:insn
                ~loc:(cell_loc t ~space ~region ~index)
                ~prev_tid:u ~prev_kind:Report.Read ~cur_tid:tid ~cur_kind
                ~same_instruction:false
            end)
          m
  end
  else if
    not
      (epoch_ordered ~wc ~lane ~clock:cell.Shadow.read_clock
         ~tid:cell.Shadow.read_tid)
  then begin
    Telemetry.Metric.counter_incr (Lazy.force m_races);
    Report.add_race t.report ~prev_insn:cell.Shadow.read_insn ~cur_insn:insn
      ~loc:(cell_loc t ~space ~region ~index)
      ~prev_tid:cell.Shadow.read_tid ~prev_kind:Report.Read ~cur_tid:tid
      ~cur_kind ~same_instruction:false
  end

(* The inflated read table is kept (cleared) for reuse, so a location
   that oscillates between shared reads and clearing writes settles
   into a no-allocation cycle. *)
let clear_reads (cell : Shadow.cell) =
  cell.Shadow.read_clock <- 0;
  cell.Shadow.read_tid <- 0;
  cell.Shadow.read_insn <- -1;
  cell.Shadow.read_shared <- false;
  match cell.Shadow.read_vc with Some m -> Mut.clear m | None -> ()

let do_read t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index cell =
  Atomic.incr t.accesses;
  Telemetry.Metric.counter_incr (Lazy.force m_checks);
  check_write t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index
    ~cur_kind:Report.Read ~value:0L cell;
  let own = Warp_clocks.own_clock wc ~lane in
  cell.Shadow.read_insn <- insn;
  if cell.Shadow.read_shared then (
    (* ReadShared *)
    match cell.Shadow.read_vc with
    | Some m -> Mut.raise_point m tid own
    | None -> assert false)
  else if
    epoch_ordered ~wc ~lane ~clock:cell.Shadow.read_clock
      ~tid:cell.Shadow.read_tid
  then begin
    (* ReadExcl *)
    cell.Shadow.read_clock <- own;
    cell.Shadow.read_tid <- tid
  end
  else begin
    (* ReadInflate: first concurrent read *)
    let m =
      match cell.Shadow.read_vc with
      | Some m -> m
      | None ->
          let m = Mut.create t.layout in
          cell.Shadow.read_vc <- Some m;
          m
    in
    Mut.raise_point m cell.Shadow.read_tid cell.Shadow.read_clock;
    Mut.raise_point m tid own;
    cell.Shadow.read_shared <- true
  end

let set_write ~rid ~wc ~lane ~tid ~insn ~atomic ~value (cell : Shadow.cell) =
  clear_reads cell;
  cell.Shadow.write_clock <- Warp_clocks.own_clock wc ~lane;
  cell.Shadow.write_tid <- tid;
  cell.Shadow.write_insn <- insn;
  cell.Shadow.write_atomic <- atomic;
  cell.Shadow.write_value <- value;
  cell.Shadow.write_record <- rid

let do_write t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index ~value cell =
  Atomic.incr t.accesses;
  Telemetry.Metric.counter_incr (Lazy.force m_checks);
  check_write t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index
    ~cur_kind:Report.Write ~value cell;
  check_reads t ~wc ~lane ~tid ~insn ~space ~region ~index
    ~cur_kind:Report.Write cell;
  set_write ~rid ~wc ~lane ~tid ~insn ~atomic:false ~value cell

let do_atomic t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index ~value cell =
  Atomic.incr t.accesses;
  Telemetry.Metric.counter_incr (Lazy.force m_checks);
  if not cell.Shadow.write_atomic then
    check_write t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index
      ~cur_kind:Report.Atomic_rmw ~value cell;
  check_reads t ~wc ~lane ~tid ~insn ~space ~region ~index
    ~cur_kind:Report.Atomic_rmw cell;
  set_write ~rid ~wc ~lane ~tid ~insn ~atomic:true ~value cell

let do_acquire t ~wc ~lane ~loc scope =
  (Shadow.find t.shadow loc).Shadow.sync_loc <- true;
  let block = Layout.block_of_warp t.layout (Warp_clocks.warp wc) in
  let gain =
    match scope with
    | Op.Block -> Sync_loc.effective t.sync loc ~block
    | Op.Global_scope -> Sync_loc.join_all_blocks t.sync loc
  in
  match gain with
  | None -> ()
  | Some v -> Warp_clocks.acquire wc ~lane v

let do_release t ~wc ~lane ~loc scope =
  (Shadow.find t.shadow loc).Shadow.sync_loc <- true;
  let c = Warp_clocks.materialize wc ~lane in
  (match scope with
  | Op.Block ->
      let block = Layout.block_of_warp t.layout (Warp_clocks.warp wc) in
      Sync_loc.release_block t.sync loc ~block c
  | Op.Global_scope -> Sync_loc.release_global t.sync loc c);
  Warp_clocks.release_increment wc ~lane

let census_bump t wc =
  let idx =
    match Warp_clocks.format_of wc with
    | Warp_clocks.Converged -> 0
    | Warp_clocks.Diverged -> 1
    | Warp_clocks.Nested_diverged -> 2
    | Warp_clocks.Sparse_vc -> 3
  in
  Atomic.incr t.census.(idx)

(* Data access over the cells an access covers.  [cls] is 0 = read,
   1 = write, 2 = atomic; the cell is locked per index without a
   closure or [Fun.protect] (the handler only re-raises). *)
let do_lane_data t ~rid ~wc ~lane ~tid ~insn ~cls ~space ~region ~addr ~width
    ~value =
  let g = Shadow.granularity t.shadow in
  let first = addr / g in
  let last = (addr + width - 1) / g in
  for index = first to last do
    (* The ownership filter runs before [Shadow.cell], so a sharded
       detector never materializes pages for cells it does not own —
       shadow state is genuinely partitioned, not replicated. *)
    let owned =
      match t.owns with None -> true | Some f -> f space region index
    in
    if owned then begin
      let cell = Shadow.cell t.shadow ~space ~region ~index in
      Mutex.lock cell.Shadow.lock;
      (try
         if cls = 0 then
           do_read t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index cell
         else if cls = 1 then
           do_write t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index ~value
             cell
         else
           do_atomic t ~rid ~wc ~lane ~tid ~insn ~space ~region ~index ~value
             cell
       with e ->
         Mutex.unlock cell.Shadow.lock;
         raise e);
      Mutex.unlock cell.Shadow.lock
    end
  done

(* Per-lane dispatch of one access record.  The access kind arrives as
   its wire opcode so no [Simt.Event.access_kind] is materialized (the
   [Atomic _] constructor would allocate). *)
let do_lane t ~rid ~wc ~lane ~tid ~insn ~opc ~role ~space ~region ~addr ~width
    ~value =
  let is_load = opc = Wire.op_load in
  let is_store = opc = Wire.op_store in
  (* [Loc.make] is built inline on the sync branches only: a closure
     here would charge every plain access its allocation. *)
  match (role : Gtrace.Roles.t) with
  | Gtrace.Roles.Plain ->
      let cls = if is_load then 0 else if is_store then 1 else 2 in
      do_lane_data t ~rid ~wc ~lane ~tid ~insn ~cls ~space ~region ~addr ~width
        ~value
  | Gtrace.Roles.Acquire s ->
      if is_store then
        do_lane_data t ~rid ~wc ~lane ~tid ~insn ~cls:1 ~space ~region ~addr
          ~width ~value
      else do_acquire t ~wc ~lane ~loc:(Loc.make ~space ~region ~addr) s
  | Gtrace.Roles.Release s ->
      if is_load then
        do_lane_data t ~rid ~wc ~lane ~tid ~insn ~cls:0 ~space ~region ~addr
          ~width ~value
      else do_release t ~wc ~lane ~loc:(Loc.make ~space ~region ~addr) s
  | Gtrace.Roles.Acquire_release s ->
      if is_load then
        do_lane_data t ~rid ~wc ~lane ~tid ~insn ~cls:0 ~space ~region ~addr
          ~width ~value
      else if is_store then
        do_lane_data t ~rid ~wc ~lane ~tid ~insn ~cls:1 ~space ~region ~addr
          ~width ~value
      else begin
        let loc = Loc.make ~space ~region ~addr in
        do_acquire t ~wc ~lane ~loc s;
        do_release t ~wc ~lane ~loc s
      end

let do_barrier t block =
  let wpb = Layout.warps_per_block t.layout in
  let first = block * wpb in
  let clock = ref 0 in
  let overlay = ref None in
  for i = first to first + wpb - 1 do
    clock := max !clock (Warp_clocks.max_own t.warps.(i));
    overlay :=
      (match (!overlay, Warp_clocks.overlay_union t.warps.(i)) with
      | None, o -> o
      | o, None -> o
      | Some a, Some b -> Some (Vclock.Cvc.join a b))
  done;
  for i = first to first + wpb - 1 do
    Warp_clocks.apply_barrier t.warps.(i) ~clock:!clock ~overlay:!overlay
  done

(* The in-place entry: consume a 280-byte record directly out of a
   transport buffer.  The view (buf, pos) is only guaranteed valid for
   the duration of the call — for queue rings, until the consumer
   releases the slot — and nothing here retains it.  [values] is the
   producer's lane-value side channel ([ [||] ] when absent). *)
let process_record t ~values buf ~pos =
  let rid = Atomic.fetch_and_add t.record_id 1 + 1 in
  let opc = Wire.View.opcode buf ~pos in
  if Wire.is_access opc then begin
     let sc = Wire.View.aux buf ~pos in
     (* space codes 0 = global, 1 = shared; local/param never race *)
     if sc <= 1 then begin
       let warp = Wire.View.warp buf ~pos in
       let wc = t.warps.(warp) in
       census_bump t wc;
       let space = Wire.space_of_code sc in
       let region = if sc = 1 then Layout.block_of_warp t.layout warp else 0 in
       let insn = Wire.View.insn buf ~pos in
       let role = t.roles.(insn) in
       let mask = Wire.View.mask buf ~pos in
       let width = Wire.View.width buf ~pos in
       let nvals = Array.length values in
       let ws = t.layout.Layout.warp_size in
       for lane = 0 to ws - 1 do
         if mask land (1 lsl lane) <> 0 then
           let tid = Layout.tid_of_warp_lane t.layout ~warp ~lane in
           let addr = Wire.View.addr buf ~pos ~lane in
           let value =
             if lane < nvals then Array.unsafe_get values lane else 0L
           in
           do_lane t ~rid ~wc ~lane ~tid ~insn ~opc ~role ~space ~region ~addr
             ~width ~value
       done;
      Warp_clocks.join_fork wc ~mask
    end
  end
  else if opc = Wire.op_branch_if then
    Warp_clocks.push_if
      t.warps.(Wire.View.warp buf ~pos)
      ~then_mask:(Wire.View.then_mask buf ~pos)
      ~else_mask:(Wire.View.else_mask buf ~pos)
  else if opc = Wire.op_branch_else || opc = Wire.op_branch_fi then begin
    (* A lost branch_if (dropped record, failed checksum) leaves this
       else/fi with no frame to pop.  Skipping it loses one
       reconvergence join — a soundness caveat already implied by the
       upstream loss — where popping the root frame would corrupt every
       later verdict and raising would kill the consumer. *)
    let wc = t.warps.(Wire.View.warp buf ~pos) in
    if Warp_clocks.path_depth wc > 1 then
      Warp_clocks.pop_path wc ~mask:(Wire.View.mask buf ~pos)
    else begin
      Telemetry.Metric.counter_incr (Lazy.force m_int_desync);
      Report.note_desync t.report
    end
  end
  else if opc = Wire.op_barrier then do_barrier t (Wire.View.aux buf ~pos)
  else if opc = Wire.op_barrier_divergence then
    Report.add_barrier_divergence t.report
      ~warp:(Wire.View.warp buf ~pos)
      ~insn:(Wire.View.insn buf ~pos)
  else invalid_arg (Printf.sprintf "Detector.feed_record: bad opcode %d" opc)

(* Integrity-checked wrapper: validate magic/version/checksum, then the
   per-producer sequence number.  Anomalies are counted, noted on the
   report (degrading the verdict), and absorbed — a corrupted or stale
   record is skipped, a gap is accounted and the stream accepted from
   the new position.  Stale records cannot be replayed: warp-clock
   state has already moved past them, so feeding them again would
   corrupt detection rather than repair it. *)
let feed_record_from t ~src ~values buf ~pos =
  let enabled = Telemetry.Registry.enabled () in
  let t0 = if enabled then Telemetry.Clock.now_ns () else 0L in
  Atomic.incr t.records;
  Telemetry.Metric.counter_incr (Lazy.force m_records);
  Telemetry.Metric.counter_incr (Lazy.force m_inplace);
  (if not t.config.check_integrity then process_record t ~values buf ~pos
   else
     match Wire.check buf ~pos with
     | Wire.Intact ->
         if src >= 0 && src < max_srcs then begin
           let slot = Array.unsafe_get t.seq_next src in
           let expect = Atomic.get slot in
           let seq = Wire.View.seq buf ~pos in
           let diff = (seq - (expect land 0xFFFFFFFF)) land 0xFFFFFFFF in
           if diff = 0 then begin
             Atomic.set slot (expect + 1);
             process_record t ~values buf ~pos
           end
           else if diff < 0x80000000 then begin
             Atomic.set slot (expect + diff + 1);
             Telemetry.Metric.counter_add (Lazy.force m_int_gap) diff;
             Report.note_gap t.report diff;
             process_record t ~values buf ~pos
           end
           else begin
             Telemetry.Metric.counter_incr (Lazy.force m_int_stale);
             Report.note_stale t.report
           end
         end
         else process_record t ~values buf ~pos
     | Wire.Bad_magic | Wire.Bad_version | Wire.Bad_checksum ->
         Telemetry.Metric.counter_incr (Lazy.force m_int_corrupt);
         Report.note_corrupt t.report);
  if enabled then
    Telemetry.Span.record_ns
      (Lazy.force sp_feed_record)
      (Telemetry.Clock.elapsed_ns ~since:t0)

let feed_record t ~values buf ~pos = feed_record_from t ~src:0 ~values buf ~pos

(* The event entry serializes through the shared event->record mapping
   into the detector's private stage and runs the same record path, so
   [run] and every direct feeder check exactly what the transport
   ships.  Fences and kernel completion produce no record. *)
let feed t ev =
  let insn =
    match ev with
    | Simt.Event.Access a -> a.Simt.Event.insn
    | Simt.Event.Branch_if { insn; _ } -> insn
    | _ -> -1
  in
  if Wire.write_event t.stage ~pos:0 ~insn ev then begin
    Atomic.incr t.records;
    Telemetry.Metric.counter_incr (Lazy.force m_records);
    let values =
      match ev with Simt.Event.Access a -> a.Simt.Event.values | _ -> no_values
    in
    process_record t ~values t.stage ~pos:0
  end

let stats t =
  let c = Atomic.get t.census.(0)
  and d = Atomic.get t.census.(1)
  and n = Atomic.get t.census.(2)
  and s = Atomic.get t.census.(3) in
  let ptvc_bytes =
    Array.fold_left (fun acc wc -> acc + Warp_clocks.footprint_bytes wc) 0 t.warps
  in
  let total = Layout.total_threads t.layout in
  {
    accesses_checked = Atomic.get t.accesses;
    records_processed = Atomic.get t.records;
    ptvc_converged = c;
    ptvc_diverged = d;
    ptvc_nested = n;
    ptvc_sparse = s;
    shadow_pages = Shadow.pages t.shadow;
    shadow_cells = Shadow.cells t.shadow;
    shadow_bytes = Shadow.bytes t.shadow;
    sync_locations = Sync_loc.count t.sync;
    ptvc_bytes;
    full_vc_bytes = total * total * 4;
  }

let run ?config ?max_steps ~machine kernel args =
  let layout = Simt.Machine.layout machine in
  let t = create ?config ~layout kernel in
  let result =
    Simt.Machine.launch ?max_steps machine kernel args ~on_event:(feed t)
  in
  (t, result)
