module Wire = Barracuda.Wire

(* ---- record sinks ------------------------------------------------- *)

type sink = {
  stage : Bytes.t;
  submit : values:int64 array -> sync:bool -> unit;
  quiesce : unit -> unit;
  sink_report : max_reports:int -> Barracuda.Report.t;
  finish : unit -> unit;
  abort : unit -> unit;
  detect_ns : unit -> int64;
  sink_records : unit -> int;
}

(* Transport-fault injection between the producer's seal and the
   detector's feed — exactly where a real DMA/interconnect fault would
   land.  Delayed records are copied aside and re-fed [hold] records
   later: by then the detector's sequence tracking has moved past
   them, so they surface as an accounted gap + stale pair rather than
   silently reordering detection state.  Flips land on a copy, so the
   staging record (and any capture of it) stays as produced. *)
type faulty = {
  stream : Fault.Plan.Transport.stream;
  scratch : Bytes.t;
  mutable held : (int * Bytes.t * int64 array) list;
}

let tick_held fc feed =
  match fc.held with
  | [] -> ()
  | held ->
      let ready = ref [] in
      fc.held <-
        List.filter_map
          (fun (n, b, v) ->
            if n <= 1 then begin
              ready := (b, v) :: !ready;
              None
            end
            else Some (n - 1, b, v))
          held;
      List.iter (fun (b, v) -> feed ~values:v b) (List.rev !ready)

let flush_held fc feed =
  List.iter (fun (_, b, v) -> feed ~values:v b) fc.held;
  fc.held <- []

let feed_with_fault fc feed ~values stage =
  (match Fault.Plan.Transport.next fc.stream with
  | Fault.Plan.Transport.Pass -> feed ~values stage
  | Fault.Plan.Transport.Flip raw ->
      let bit = raw mod (Wire.size * 8) in
      Bytes.blit stage 0 fc.scratch 0 Wire.size;
      let byte = bit / 8 in
      Bytes.set_uint8 fc.scratch byte
        (Bytes.get_uint8 fc.scratch byte lxor (1 lsl (bit land 7)));
      feed ~values fc.scratch
  | Fault.Plan.Transport.Drop -> ()
  | Fault.Plan.Transport.Duplicate ->
      feed ~values stage;
      feed ~values stage
  | Fault.Plan.Transport.Delay hold ->
      fc.held <- fc.held @ [ (hold, Bytes.sub stage 0 Wire.size, values) ]);
  tick_held fc feed

let serial_sink ?(config = Barracuda.Detector.default_config) ?fault ~layout
    kernel =
  let det = Barracuda.Detector.create ~config ~layout kernel in
  let stage = Bytes.create Wire.size in
  let seq = ref 0 in
  let detect = ref 0L in
  let records = ref 0 in
  (* The production path: seal and feed in place, nothing else.  Fault
     plans and telemetry get their own closure, chosen once here, so
     the plain path carries no per-record branch for either. *)
  let plain ~values ~sync:_ =
    Wire.seal stage ~pos:0 ~seq:!seq;
    incr seq;
    let t0 = Telemetry.Clock.now_ns () in
    Barracuda.Detector.feed_record_from det ~src:0 ~values stage ~pos:0;
    detect := Int64.add !detect (Telemetry.Clock.elapsed_ns ~since:t0);
    incr records
  in
  let sp_detect =
    if Telemetry.Registry.enabled () then Some (Telemetry.Span.create "detect")
    else None
  in
  let feed ~values buf =
    let t0 = Telemetry.Clock.now_ns () in
    Barracuda.Detector.feed_record_from det ~src:0 ~values buf ~pos:0;
    let d = Telemetry.Clock.elapsed_ns ~since:t0 in
    detect := Int64.add !detect d;
    match sp_detect with Some sp -> Telemetry.Span.record_ns sp d | None -> ()
  in
  let faulty =
    Option.map
      (fun p ->
        {
          stream = Fault.Plan.Transport.stream p ~src:0;
          scratch = Bytes.create Wire.size;
          held = [];
        })
      fault
  in
  let submit =
    if Option.is_none faulty && Option.is_none sp_detect then plain
    else
      let deliver =
        match faulty with Some fc -> feed_with_fault fc feed | None -> feed
      in
      fun ~values ~sync:_ ->
        Wire.seal stage ~pos:0 ~seq:!seq;
        incr seq;
        deliver ~values stage;
        incr records
  in
  {
    stage;
    submit;
    quiesce = (fun () -> ());
    sink_report = (fun ~max_reports:_ -> Barracuda.Detector.report det);
    finish =
      (fun () -> match faulty with Some fc -> flush_held fc feed | None -> ());
    abort = (fun () -> ());
    detect_ns = (fun () -> !detect);
    sink_records = (fun () -> !records);
  }

(* ---- batch execution as a session -------------------------------- *)

let no_values : int64 array = [||]

let drive ?max_steps ?deadline_ns ?fault ?inst ?capture ?tee ~machine sink
    kernel args =
  let roles = Gtrace.Roles.classify kernel in
  let orig, keep, run_kernel =
    match inst with
    | Some i ->
        let origin = i.Instrument.Pass.origin in
        let logged = i.Instrument.Pass.logged in
        let n = Array.length origin in
        ( (fun j -> if j >= 0 && j < n then Array.unsafe_get origin j else -1),
          (fun o -> o >= 0 && logged.(o)),
          i.Instrument.Pass.kernel )
    | None -> ((fun j -> j), (fun _ -> true), kernel)
  in
  (* Synchronization classification for epoch accounting: barriers
     always; accesses when the static role analysis gave them
     acquire/release semantics.  Never affects detection. *)
  let is_sync_access o =
    o >= 0
    &&
    match roles.(o) with
    | Gtrace.Roles.Acquire _ | Gtrace.Roles.Release _
    | Gtrace.Roles.Acquire_release _ ->
        true
    | Gtrace.Roles.Plain -> false
  in
  let buf = sink.stage in
  let emit ~values ~sync =
    sink.submit ~values ~sync;
    (* after [submit]: the staged record is sealed, so the capture is a
       byte-faithful recording of the ingested stream *)
    match capture with
    | Some b -> Stream.append_cell b buf ~pos:0 ~values
    | None -> ()
  in
  (* Accesses from logging code (origin -1) or pruned sites are
     dropped; instrumentation-introduced branches map to -1 but are
     still forwarded since they reshape the SIMT stack. *)
  let on_event ev =
    match ev with
    | Simt.Event.Access a ->
        let o = orig a.Simt.Event.insn in
        if keep o then begin
          ignore (Wire.write_event buf ~pos:0 ~insn:o ev);
          emit ~values:a.Simt.Event.values ~sync:(is_sync_access o)
        end
    | Simt.Event.Branch_if { insn; _ } ->
        ignore (Wire.write_event buf ~pos:0 ~insn:(orig insn) ev);
        emit ~values:no_values ~sync:false
    | Simt.Event.Barrier _ ->
        ignore (Wire.write_event buf ~pos:0 ~insn:(-1) ev);
        emit ~values:no_values ~sync:true
    | _ ->
        if Wire.write_event buf ~pos:0 ~insn:(-1) ev then
          emit ~values:no_values ~sync:false
  in
  (* The tee observes every event the sink receives, remapped to
     original instruction indices, plus the record-less fences and
     kernel completion.  The remapped event is only built when a tee
     is installed, so the production path allocates nothing. *)
  let on_event =
    match tee with
    | None -> on_event
    | Some f ->
        fun ev ->
          (match ev with
          | Simt.Event.Access a ->
              let o = orig a.Simt.Event.insn in
              if keep o then
                f
                  (if o = a.Simt.Event.insn then ev
                   else Simt.Event.Access { a with Simt.Event.insn = o })
          | Simt.Event.Fence { warp; insn; scope; mask } ->
              let o = orig insn in
              if o >= 0 then f (Simt.Event.Fence { warp; insn = o; scope; mask })
          | Simt.Event.Branch_if { warp; insn; then_mask; else_mask } ->
              f (Simt.Event.Branch_if { warp; insn = orig insn; then_mask; else_mask })
          | ev -> f ev);
          on_event ev
  in
  let launch on_event =
    Simt.Machine.launch ?max_steps ?deadline_ns ?fault machine run_kernel args
      ~on_event
  in
  try
    if not (Telemetry.Registry.enabled ()) then launch on_event
    else begin
      (* The execute span is the machine's own time: launch time minus
         the callback, which belongs to serialization and the sink. *)
      let cb_ns = ref 0L in
      let timed ev =
        let t0 = Telemetry.Clock.now_ns () in
        on_event ev;
        cb_ns := Int64.add !cb_ns (Telemetry.Clock.elapsed_ns ~since:t0)
      in
      let t0 = Telemetry.Clock.now_ns () in
      let result = launch timed in
      Telemetry.Span.record_ns
        (Telemetry.Span.create "execute")
        (Int64.sub (Telemetry.Clock.elapsed_ns ~since:t0) !cb_ns);
      result
    end
  with e ->
    sink.abort ();
    raise e

type stream_result = {
  sr_report : Barracuda.Report.t;
  sr_machine_result : Simt.Machine.result;
  sr_records : int;
  sr_detect_ns : int64;
}

let run_stream ?sink ?(detector = Barracuda.Detector.default_config) ?max_steps
    ?deadline_ns ?fault ?inst ?capture ?tee ~machine kernel args =
  let sink =
    match sink with
    | Some s -> s
    | None ->
        serial_sink ~config:detector ?fault
          ~layout:(Simt.Machine.layout machine) kernel
  in
  let mr =
    drive ?max_steps ?deadline_ns ?fault ?inst ?capture ?tee ~machine sink
      kernel args
  in
  sink.finish ();
  {
    sr_report =
      sink.sink_report ~max_reports:detector.Barracuda.Detector.max_reports;
    sr_machine_result = mr;
    sr_records = sink.sink_records ();
    sr_detect_ns = sink.detect_ns ();
  }

(* ---- multi-launch sessions --------------------------------------- *)

type rollup = {
  r_kernel : string;
  r_ns : int64;
  r_records : int;
  r_races : int;
}

type t = {
  detector : Barracuda.Detector.config;
  layout : Vclock.Layout.t;
  mutable machine : Simt.Machine.t;
  mutable launches : int;
  mutable resets : int;
  mutable reports : (string * Barracuda.Report.t) list; (* newest first *)
  mutable rollups : rollup list; (* newest first *)
}

let m_launches =
  lazy
    (Telemetry.Registry.counter ~help:"Session kernel launches"
       Telemetry.Registry.default "barracuda_session_launches_total")

let m_races =
  lazy
    (Telemetry.Registry.counter
       ~help:"Distinct races reported across session launches"
       Telemetry.Registry.default "barracuda_session_races_total")

let m_records =
  lazy
    (Telemetry.Registry.counter
       ~help:"Records shipped across session launches"
       Telemetry.Registry.default "barracuda_session_records_total")

let create ?(detector = Barracuda.Detector.default_config) ~layout () =
  {
    detector;
    layout;
    machine = Simt.Machine.create ~layout ();
    launches = 0;
    resets = 0;
    reports = [];
    rollups = [];
  }

let machine t = t.machine

let launch ?max_steps t kernel args =
  (* The per-launch rollup always carries a monotonic duration (cheap:
     two clock reads per launch); the "launch" span additionally feeds
     the registry when telemetry is enabled. *)
  let t0 = Telemetry.Clock.now_ns () in
  let sp = Telemetry.Span.create "launch" in
  let result =
    run_stream ~detector:t.detector ?max_steps
      ~inst:(Instrument.Pass.instrument ~prune:true ~static:true kernel)
      ~machine:t.machine kernel args
  in
  let ns = Telemetry.Clock.elapsed_ns ~since:t0 in
  Telemetry.Span.record_ns sp ns;
  let report = result.sr_report in
  let races = Barracuda.Report.race_count report in
  let records = result.sr_records in
  Telemetry.Metric.counter_incr (Lazy.force m_launches);
  Telemetry.Metric.counter_add (Lazy.force m_races) races;
  Telemetry.Metric.counter_add (Lazy.force m_records) records;
  t.launches <- t.launches + 1;
  t.reports <- (kernel.Ptx.Ast.kname, report) :: t.reports;
  t.rollups <-
    { r_kernel = kernel.Ptx.Ast.kname; r_ns = ns; r_records = records;
      r_races = races }
    :: t.rollups;
  result

let device_reset t =
  (* every launch finishes its sink before returning (the "delay the
     reset until the queues are fully drained" behaviour); the reset
     frees the device state, and the next launch reinitializes *)
  t.machine <- Simt.Machine.create ~layout:t.layout ();
  t.resets <- t.resets + 1

let launches t = t.launches
let resets t = t.resets
let reports t = List.rev t.reports
let rollups t = List.rev t.rollups

let total_races t =
  List.fold_left
    (fun acc (_, r) -> acc + Barracuda.Report.race_count r)
    0 t.reports

(* ---- streaming sessions ------------------------------------------ *)

(* Session gauges live in the default registry; the open count is an
   atomic because sessions open/close from service seat domains. *)
let open_count = Atomic.make 0

let g_open =
  lazy
    (Telemetry.Registry.gauge ~help:"Streaming sessions currently open"
       Telemetry.Registry.default "barracuda_session_open_streams")

let g_rate =
  lazy
    (Telemetry.Registry.gauge
       ~help:
         "Accepted records per second of the most recently \
          checkpointed/closed streaming session"
       Telemetry.Registry.default "barracuda_session_records_per_sec")

let c_stream_records =
  lazy
    (Telemetry.Registry.counter
       ~help:"Records accepted across streaming sessions"
       Telemetry.Registry.default "barracuda_session_stream_records_total")

let h_checkpoint =
  lazy
    (Telemetry.Registry.histogram
       ~help:"Streaming-session checkpoint latency (ms)"
       ~bounds:[| 0.01; 0.05; 0.1; 0.5; 1.; 5.; 10.; 50.; 100. |]
       Telemetry.Registry.default "barracuda_session_checkpoint_ms")

(* The same global transport-integrity counters the detector's own
   validation feeds (the registry dedupes by name): session-level
   validation of externally fed records is the same transport layer. *)
let c_int_corrupt =
  lazy
    (Telemetry.Registry.counter
       ~help:"Wire records dropped: magic/version/checksum validation failed"
       Telemetry.Registry.default "barracuda_transport_integrity_corrupt_total")

let c_int_gap =
  lazy
    (Telemetry.Registry.counter
       ~help:"Wire records lost between consecutive sequence numbers"
       Telemetry.Registry.default "barracuda_transport_integrity_gap_total")

let c_int_stale =
  lazy
    (Telemetry.Registry.counter
       ~help:"Wire records dropped: duplicate or out-of-date sequence"
       Telemetry.Registry.default "barracuda_transport_integrity_stale_total")

type progress = {
  p_records : int;
  p_race_count : int;
  p_has_race : bool;
  p_degraded : bool;
  p_integrity : Barracuda.Report.integrity;
  p_errors : Barracuda.Report.error list;
  p_checkpoints : int;
  p_final : bool;
}

type stream = {
  st_sink : sink;
  st_roles : Gtrace.Roles.t array;
  st_reader : Stream.reader;
  st_max_reports : int;
  mutable st_expected_seq : int;
  mutable st_corrupt : int;
  mutable st_gaps : int;
  mutable st_stale : int;
  mutable st_records : int;
  mutable st_checkpoints : int;
  mutable st_closed : bool;
  st_opened_ns : int64;
}

let open_stream ?sink ?(detector = Barracuda.Detector.default_config) ~layout
    kernel =
  let sink =
    match sink with
    | Some s -> s
    | None -> serial_sink ~config:detector ~layout kernel
  in
  let n = 1 + Atomic.fetch_and_add open_count 1 in
  Telemetry.Metric.gauge_set (Lazy.force g_open) n;
  {
    st_sink = sink;
    st_roles = Gtrace.Roles.classify kernel;
    st_reader = Stream.reader ();
    st_max_reports = detector.Barracuda.Detector.max_reports;
    st_expected_seq = 0;
    st_corrupt = 0;
    st_gaps = 0;
    st_stale = 0;
    st_records = 0;
    st_checkpoints = 0;
    st_closed = false;
    st_opened_ns = Telemetry.Clock.now_ns ();
  }

let is_sync_record st buf ~pos =
  let op = Wire.View.opcode buf ~pos in
  if op = Wire.op_barrier then true
  else
    Wire.is_access op
    &&
    let insn = Wire.View.insn buf ~pos in
    insn >= 0
    && insn < Array.length st.st_roles
    &&
    match st.st_roles.(insn) with
    | Gtrace.Roles.Plain -> false
    | Gtrace.Roles.Acquire _ | Gtrace.Roles.Release _
    | Gtrace.Roles.Acquire_release _ ->
        true

(* Validate one reassembled cell, mirroring the detector's transport
   tracking (checksum first, then sequence continuity), and re-seal
   accepted records through the sink so the backend always sees a
   contiguous intact stream — crucial for shard broadcast, whose
   reseal would otherwise mask client-side corruption. *)
let ingest_cell st ~buf ~pos ~values =
  match Wire.check buf ~pos with
  | Wire.Bad_magic | Wire.Bad_version | Wire.Bad_checksum ->
      st.st_corrupt <- st.st_corrupt + 1;
      Telemetry.Metric.counter_incr (Lazy.force c_int_corrupt)
  | Wire.Intact ->
      let seq = Wire.View.seq buf ~pos in
      if seq < st.st_expected_seq then begin
        st.st_stale <- st.st_stale + 1;
        Telemetry.Metric.counter_incr (Lazy.force c_int_stale)
      end
      else begin
        if seq > st.st_expected_seq then begin
          let lost = seq - st.st_expected_seq in
          st.st_gaps <- st.st_gaps + lost;
          Telemetry.Metric.counter_add (Lazy.force c_int_gap) lost
        end;
        st.st_expected_seq <- seq + 1;
        let sync = is_sync_record st buf ~pos in
        Bytes.blit buf pos st.st_sink.stage 0 Wire.size;
        st.st_sink.submit ~values ~sync;
        st.st_records <- st.st_records + 1;
        Telemetry.Metric.counter_incr (Lazy.force c_stream_records)
      end

let feed_chunk st ?pos ?len chunk =
  if st.st_closed then invalid_arg "Session.feed_chunk: stream is closed";
  ignore
    (Stream.feed st.st_reader ?pos ?len chunk (fun ~buf ~pos ~values ->
         ingest_cell st ~buf ~pos ~values))

let session_degraded st = st.st_corrupt + st.st_gaps + st.st_stale > 0

let progress_of ?(final = false) st =
  let r = st.st_sink.sink_report ~max_reports:st.st_max_reports in
  let di = Barracuda.Report.integrity r in
  {
    p_records = st.st_records;
    p_race_count = Barracuda.Report.race_count r;
    p_has_race = Barracuda.Report.has_race r;
    p_degraded = Barracuda.Report.degraded r || session_degraded st;
    p_integrity =
      {
        Barracuda.Report.corrupt = di.Barracuda.Report.corrupt + st.st_corrupt;
        gaps = di.Barracuda.Report.gaps + st.st_gaps;
        stale = di.Barracuda.Report.stale + st.st_stale;
        desync = di.Barracuda.Report.desync;
      };
    p_errors = Barracuda.Report.errors r;
    p_checkpoints = st.st_checkpoints;
    p_final = final;
  }

let note_rate st =
  let el = Telemetry.Clock.ns_to_s (Telemetry.Clock.elapsed_ns ~since:st.st_opened_ns) in
  if el > 0. then
    Telemetry.Metric.gauge_set (Lazy.force g_rate)
      (int_of_float (float_of_int st.st_records /. el))

let checkpoint st =
  if st.st_closed then invalid_arg "Session.checkpoint: stream is closed";
  let t0 = Telemetry.Clock.now_ns () in
  st.st_sink.quiesce ();
  let p = progress_of st in
  st.st_checkpoints <- st.st_checkpoints + 1;
  Telemetry.Metric.histogram_observe (Lazy.force h_checkpoint)
    (Telemetry.Clock.ns_to_ms (Telemetry.Clock.elapsed_ns ~since:t0));
  note_rate st;
  { p with p_checkpoints = st.st_checkpoints }

let release_slot () =
  let n = Atomic.fetch_and_add open_count (-1) - 1 in
  Telemetry.Metric.gauge_set (Lazy.force g_open) (max 0 n)

let close_stream st =
  if st.st_closed then invalid_arg "Session.close_stream: stream is closed";
  st.st_sink.finish ();
  st.st_closed <- true;
  release_slot ();
  note_rate st;
  progress_of ~final:true st

let abort_stream st =
  if not st.st_closed then begin
    st.st_closed <- true;
    (try st.st_sink.abort () with _ -> ());
    release_slot ()
  end

let stream_records st = st.st_records
let stream_detect_ns st = st.st_sink.detect_ns ()

(* Op-plane sessions: the incremental lifecycle over abstract trace
   operations.  The reference detector is synchronous, so there is no
   quiesce step — a report between feeds is already epoch-aligned. *)

type ops = {
  o_ref : Barracuda.Reference.t;
  mutable o_fed : int;
  mutable o_closed : bool;
}

let open_ops ?max_reports ?filter_same_value ~layout () =
  {
    o_ref =
      Barracuda.Reference.create ?max_reports ?filter_same_value ~layout ();
    o_fed = 0;
    o_closed = false;
  }

let feed_op o op =
  if o.o_closed then invalid_arg "Session.feed_op: op-session is closed";
  Barracuda.Reference.step o.o_ref op;
  o.o_fed <- o.o_fed + 1

let feed_ops o l = List.iter (feed_op o) l
let ops_fed o = o.o_fed
let ops_report o = Barracuda.Reference.report o.o_ref

let close_ops o =
  o.o_closed <- true;
  Barracuda.Reference.report o.o_ref
