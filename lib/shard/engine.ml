module Wire = Barracuda.Wire
module Queue = Gpu_runtime.Queue

exception Shard_crashed of int

let no_values : int64 array = [||]

type t = {
  layout : Vclock.Layout.t;
  detectors : Barracuda.Detector.t array;
  rings : Queue.t array;
  values_ring : int64 array array array;
  cap : int;
  scratch : Bytes.t;
  mutable seq : int;
  mutable last_sync_seq : int;
  mutable records : int;
  producing : bool Atomic.t;
  failed : bool Atomic.t array;
  mutable consumers : int64 Domain.t array;
  mutable joined : bool;
  mutable detect : int64;
  fault : Fault.Plan.t option;
  m_epoch : Telemetry.Metric.histogram;
  m_imbalance : Telemetry.Metric.gauge;
}

(* One shard's consumer: drain the ring into the shard detector until
   the producer is done and the ring is empty.  The ring is SPSC and
   the stream totally ordered by construction, so — unlike
   [Pipeline.parallel_sink]'s consumers — no cross-queue acquire
   handshake is needed: every shard sees every synchronization record
   at the same position in its stream.  Returns cumulative nanoseconds
   spent inside the detector. *)
let consume t i m_records =
  let q = t.rings.(i) in
  let det = t.detectors.(i) in
  let buf = Queue.buffer q in
  let crash =
    match t.fault with
    | None -> None
    | Some p -> Fault.Plan.shard_crash_after p ~shard:i
  in
  let detect = ref 0L in
  let consumed = ref 0 in
  (try
     let rec loop () =
       let off = Queue.peek q in
       if off >= 0 then begin
         (match crash with
         | Some n when !consumed >= n ->
             (match t.fault with
             | Some p -> Fault.Plan.note_shard_crash p
             | None -> ());
             raise Fault.Plan.Injected_shard_crash
         | _ -> ());
         let values = t.values_ring.(i).(off / Wire.size) in
         let t0 = Telemetry.Clock.now_ns () in
         Barracuda.Detector.feed_record_from det ~src:0 ~values buf ~pos:off;
         detect := Int64.add !detect (Telemetry.Clock.elapsed_ns ~since:t0);
         incr consumed;
         Telemetry.Metric.counter_incr m_records;
         Queue.release q;
         loop ()
       end
       else if Atomic.get t.producing || Queue.length q > 0 then begin
         Unix.sleepf 0.0002;
         loop ()
       end
     in
     loop ()
   with Fault.Plan.Injected_shard_crash -> Atomic.set t.failed.(i) true);
  !detect

let create ?router ?(ring_capacity = 4096) ?fault
    ?(config = Barracuda.Detector.default_config) ~layout ~shards kernel =
  if shards < 1 then invalid_arg "Engine.create: shards must be >= 1";
  let router =
    match router with
    | Some r ->
        if Router.shards r <> shards then
          invalid_arg "Engine.create: router/shard count mismatch";
        r
    | None -> Router.make ~shards ()
  in
  let detectors =
    Array.init shards (fun i ->
        Barracuda.Detector.create ~config ~owns:(Router.owns router ~shard:i)
          ~layout kernel)
  in
  let reg = Telemetry.Registry.default in
  let t =
    {
      layout;
      detectors;
      rings = Array.init shards (fun _ -> Queue.create ~capacity:ring_capacity);
      values_ring =
        Array.init shards (fun _ -> Array.make ring_capacity no_values);
      cap = ring_capacity;
      scratch = Bytes.create Wire.size;
      seq = 0;
      last_sync_seq = 0;
      records = 0;
      producing = Atomic.make true;
      failed = Array.init shards (fun _ -> Atomic.make false);
      consumers = [||];
      joined = false;
      detect = 0L;
      fault;
      m_epoch =
        Telemetry.Registry.histogram
          ~help:"Records between consecutive broadcast synchronization epochs"
          ~bounds:[| 1.; 4.; 16.; 64.; 256.; 1024.; 4096. |]
          reg "barracuda_shard_epoch_records";
      m_imbalance =
        Telemetry.Registry.gauge
          ~help:
            "Busiest shard's share of checked accesses, percent of a \
             perfectly even split (100 = balanced)"
          reg "barracuda_shard_imbalance_pct";
    }
  in
  (* Per-shard drain counters registered before the domains spawn, so
     the mutex-protected registration never races with hot updates. *)
  let m_records =
    Array.init shards (fun i ->
        Telemetry.Registry.counter ~help:"Records consumed per shard"
          ~labels:[ ("shard", string_of_int i) ]
          reg "barracuda_shard_records_total")
  in
  t.consumers <-
    Array.init shards (fun i -> Domain.spawn (fun () -> consume t i m_records.(i)));
  t

let shards t = Array.length t.detectors
let scratch t = t.scratch

let reserve t i =
  let q = t.rings.(i) in
  let rec go attempt =
    (* A dead consumer never drains its ring; raising here keeps a
       doomed job from blocking the producer forever and, more
       importantly, from completing with a partial merge. *)
    if Atomic.get t.failed.(i) then raise (Shard_crashed i);
    let w = Queue.try_reserve q in
    if w >= 0 then w
    else begin
      Queue.full_backoff attempt;
      go (attempt + 1)
    end
  in
  go 0

let broadcast t ~values ~sync =
  let seq = t.seq in
  t.seq <- seq + 1;
  (* Seal once: every ring receives byte-identical sealed records, and
     because each ring carries the full stream, the global sequence
     number doubles as the per-ring sequence number the detectors'
     integrity tracking expects. *)
  Wire.seal t.scratch ~pos:0 ~seq;
  if sync then begin
    if Telemetry.Registry.enabled () then
      Telemetry.Metric.histogram_observe t.m_epoch
        (float_of_int (seq - t.last_sync_seq));
    t.last_sync_seq <- seq
  end;
  let n = Array.length t.rings in
  for i = 0 to n - 1 do
    let q = t.rings.(i) in
    let w = reserve t i in
    let pos = Queue.offset_of q w in
    Bytes.blit t.scratch 0 (Queue.buffer q) pos Wire.size;
    t.values_ring.(i).(w mod t.cap) <- values;
    Queue.commit q w
  done;
  t.records <- t.records + 1

(* Wait until every ring is fully drained while the consumers keep
   running — the epoch-aligned barrier behind streaming checkpoints.
   The producer (the one caller) is quiescent by contract, so once the
   rings are empty every broadcast record has been fed and released;
   reading the ring's consumer index synchronizes with the release, so
   detector state is safe to read until production resumes. *)
let quiesce t =
  Array.iteri
    (fun i q ->
      let rec wait () =
        if Atomic.get t.failed.(i) then raise (Shard_crashed i);
        if Queue.length q > 0 then begin
          Unix.sleepf 0.0002;
          wait ()
        end
      in
      wait ())
    t.rings

let join_all t =
  if not t.joined then begin
    Atomic.set t.producing false;
    let times = Array.map Domain.join t.consumers in
    t.detect <-
      Array.fold_left
        (fun a b -> if Int64.compare a b >= 0 then a else b)
        0L times;
    t.joined <- true;
    if Telemetry.Registry.enabled () then begin
      let checked =
        Array.map
          (fun d -> (Barracuda.Detector.stats d).Barracuda.Detector.accesses_checked)
          t.detectors
      in
      let total = Array.fold_left ( + ) 0 checked in
      let hi = Array.fold_left max 0 checked in
      if total > 0 then
        Telemetry.Metric.gauge_set t.m_imbalance
          (hi * 100 * Array.length checked / total)
    end
  end

let abort t = join_all t

let finish t =
  join_all t;
  Array.iteri (fun i f -> if Atomic.get f then raise (Shard_crashed i)) t.failed

let detectors t = t.detectors

let report t ~max_reports =
  Merge.merged ~layout:t.layout ~max_reports
    (Array.map Barracuda.Detector.report t.detectors)

let detect_ns t = t.detect
let records t = t.records
