module Wire = Barracuda.Wire

let default_queues = 4
let default_queue_capacity = 4096

type stats = { records : int; stalls : int; high_watermark : int }

let no_values : int64 array = [||]

(* The paper's deployment (§4.3): host threads drain the queues
   concurrently with kernel execution.  The producer ([Session.drive]
   on the calling domain) stages each record; [submit] copies it into
   the ring slot of its block's queue, and one consumer domain per
   queue feeds the shared detector, reading each record in place from
   the slot and releasing the slot afterwards.  Each thread block logs
   to exactly one queue, so each domain owns its blocks' warp clocks
   without locking; global-memory shadow cells carry their
   per-location locks.

   Side channels (device stamp, store values) are slot-indexed arrays
   alongside the ring, written between [try_reserve] and [commit]:
   [commit]'s atomic store publishes them, and a consumer only reads a
   slot after observing the commit, so the plain-array writes are
   visible (release/acquire on the commit index).  A slot cannot be
   rewritten until its consumer releases it, so the values stay valid
   for exactly as long as the record bytes do.

   Cross-queue ordering of synchronization records is a hazard the
   paper does not address: block B's acquire can be drained before
   block A's release even though the device executed them in the
   opposite order, which would manufacture races on correctly
   synchronized code.  We close it with device timestamps: every record
   carries a global sequence number, and a consumer holds an {e
   acquire} record until every other queue is past that stamp (a queue
   that is empty can only ever produce larger stamps).  Stamps are
   totally ordered, so the wait graph is acyclic and the protocol
   cannot deadlock; releases and plain accesses never wait. *)
let parallel_sink ?(queues = default_queues)
    ?(queue_capacity = default_queue_capacity)
    ?(config = Barracuda.Detector.default_config) ~layout kernel =
  if queues < 1 then invalid_arg "Pipeline.parallel_sink: queues must be >= 1";
  let detector = Barracuda.Detector.create ~config ~layout kernel in
  let roles = Gtrace.Roles.classify kernel in
  let reg = Telemetry.Registry.default in
  (* Handles are registered before the domains spawn, so registration
     (which takes a mutex) never races with hot updates. *)
  let m_records =
    Telemetry.Registry.counter ~help:"Records shipped through the queues" reg
      "barracuda_pipeline_records_total"
  in
  let m_stalls =
    Telemetry.Registry.counter ~help:"Producer stalls on full queues" reg
      "barracuda_pipeline_stalls_total"
  in
  let m_drained =
    Array.init queues (fun qi ->
        Telemetry.Registry.counter ~help:"Records drained per consumer domain"
          ~labels:[ ("domain", string_of_int qi) ]
          reg "barracuda_pipeline_domain_drained_total")
  in
  let m_acquire_waits =
    Telemetry.Registry.counter
      ~help:"Consumer waits for cross-queue acquire ordering" reg
      "barracuda_pipeline_acquire_waits_total"
  in
  let sp_queue = Telemetry.Span.create "queue" in
  let sp_detect = Telemetry.Span.create "detect" in
  let nq = queues and cap = queue_capacity in
  let rings = Array.init nq (fun _ -> Queue.create ~capacity:cap) in
  let stamps = Array.init nq (fun _ -> Array.make cap max_int) in
  let values_ring = Array.init nq (fun _ -> Array.make cap no_values) in
  let stage = Bytes.create Wire.size in
  let stalls = ref 0 and records = ref 0 in
  let producing = Atomic.make true in
  (* A queue's frontier is the stamp of its oldest unreleased record
     (the one its consumer is feeding, or will feed next): everything
     below it has been fully race-checked.  Reading it from another
     domain is a benign race resolved conservatively: observing
     [pushed > r] (acquire) makes record [r]'s stamp write visible, and
     the slot cannot have been recycled while [read_index] still equals
     [r] — slot reuse requires the reader to have advanced first.  If
     the consumer moved under us, return 0 ("unknown, assume behind")
     and let the waiter re-poll. *)
  let frontier_of qi =
    let q = rings.(qi) in
    let r = Queue.read_index q in
    if Queue.pushed q <= r then max_int
    else begin
      let s = stamps.(qi).(r mod cap) in
      if Queue.read_index q = r then s else 0
    end
  in
  let others_past qi stamp =
    let ok = ref true in
    for qj = 0 to nq - 1 do
      if qj <> qi && frontier_of qj < stamp then ok := false
    done;
    !ok
  in
  (* Acquire classification straight off the wire image — no decode. *)
  let is_acquire_at buf pos =
    Wire.is_access (Wire.View.opcode buf ~pos)
    &&
    let insn = Wire.View.insn buf ~pos in
    insn >= 0
    &&
    match roles.(insn) with
    | Gtrace.Roles.Acquire _ | Gtrace.Roles.Acquire_release _ -> true
    | Gtrace.Roles.Plain | Gtrace.Roles.Release _ -> false
  in
  let consume qi q =
    let buf = Queue.buffer q in
    let detect = ref 0L in
    let rec loop () =
      let off = Queue.peek q in
      if off >= 0 then begin
        let slot = off / Wire.size in
        let stamp = stamps.(qi).(slot) in
        if is_acquire_at buf off then
          while not (others_past qi stamp) do
            Telemetry.Metric.counter_incr m_acquire_waits;
            Unix.sleepf 0.0002
          done;
        let t0 = Telemetry.Clock.now_ns () in
        Barracuda.Detector.feed_record_from detector ~src:qi
          ~values:values_ring.(qi).(slot) buf ~pos:off;
        let d = Telemetry.Clock.elapsed_ns ~since:t0 in
        detect := Int64.add !detect d;
        if Telemetry.Registry.enabled () then Telemetry.Span.record_ns sp_detect d;
        Telemetry.Metric.counter_incr m_drained.(qi);
        Queue.release q;
        loop ()
      end
      else if Atomic.get producing || Queue.length q > 0 then begin
        Unix.sleepf 0.0002;
        loop ()
      end
    in
    loop ();
    !detect
  in
  let consumers =
    Array.mapi (fun qi q -> Domain.spawn (fun () -> consume qi q)) rings
  in
  let detect_ns = ref 0L and joined = ref false in
  let join () =
    if not !joined then begin
      joined := true;
      Atomic.set producing false;
      detect_ns :=
        Array.fold_left
          (fun acc d ->
            let t = Domain.join d in
            if Int64.compare t acc > 0 then t else acc)
          0L consumers
    end
  in
  (* Producer side: route by block, reserve a slot (waiting out
     backpressure), copy the staged record in, stamp, seal with the
     queue's own sequence number, commit. *)
  let reserve qi =
    let q = rings.(qi) in
    let rec go attempt =
      let w = Queue.try_reserve q in
      if w >= 0 then w
      else begin
        incr stalls;
        Telemetry.Metric.counter_incr m_stalls;
        Queue.full_backoff attempt;
        go (attempt + 1)
      end
    in
    go 0
  in
  let submit ~values ~sync:_ =
    let t0 =
      if Telemetry.Registry.enabled () then Telemetry.Clock.now_ns () else 0L
    in
    let block =
      if Wire.View.opcode stage ~pos:0 = Wire.op_barrier then
        Wire.View.aux stage ~pos:0
      else Vclock.Layout.block_of_warp layout (Wire.View.warp stage ~pos:0)
    in
    let qi = block mod nq in
    let q = rings.(qi) in
    (* the staged record is sealed too, with the global stamp, so a
       capture of the stage stays a valid stream *)
    Wire.seal stage ~pos:0 ~seq:!records;
    let w = reserve qi in
    let slot = w mod cap in
    incr records;
    stamps.(qi).(slot) <- !records;
    values_ring.(qi).(slot) <- values;
    let pos = Queue.offset_of q w in
    Bytes.blit stage 0 (Queue.buffer q) pos Wire.size;
    Wire.seal (Queue.buffer q) ~pos ~seq:w;
    Queue.commit q w;
    if not (Int64.equal t0 0L) then
      Telemetry.Span.record_ns sp_queue (Telemetry.Clock.elapsed_ns ~since:t0);
    Telemetry.Metric.counter_incr m_records
  in
  let sink =
    {
      Session.stage;
      submit;
      quiesce =
        (fun () ->
          Array.iter
            (fun q ->
              while Queue.length q > 0 do
                Unix.sleepf 0.0002
              done)
            rings);
      sink_report = (fun ~max_reports:_ -> Barracuda.Detector.report detector);
      finish = join;
      abort = join;
      detect_ns = (fun () -> !detect_ns);
      sink_records = (fun () -> !records);
      sink_stats = (fun () -> Barracuda.Detector.stats detector);
    }
  in
  let stats () =
    {
      records = !records;
      stalls =
        Array.fold_left (fun acc q -> acc + Queue.stalls q) !stalls rings;
      high_watermark =
        Array.fold_left (fun acc q -> max acc (Queue.high_watermark q)) 0 rings;
    }
  in
  (sink, stats)
