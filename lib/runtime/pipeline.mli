(** The paper's concurrent host (§4.2–4.3) as a {!Session.sink}: records
    go through GPU→host log queues ({!Queue}, one per [block mod
    queues]) and one consumer domain per queue race-checks them
    {e while the kernel executes} on the calling domain.

    Run it with [Session.run_stream ~sink]; the producer is
    {!Session.drive}, as for every other backend.  Each thread block
    logs to exactly one queue, so each domain owns its blocks' warp
    clocks without locking.  Records cross the queues in the 280-byte
    wire format, sealed per queue and validated in place by the
    detector.  When a queue fills, the producer stalls until its
    consumer drains ({!stats} counts those backpressure events).

    Cross-queue interleaving is nondeterministic, as in the real
    system; acquire records wait for every other queue to pass their
    device stamp, so correctly synchronized code never shows races.
    Reports between runs may name different witnesses for the same
    racy location. *)

val default_queues : int
(** 4. *)

val default_queue_capacity : int
(** 4096 records per queue. *)

type stats = {
  records : int;  (** records shipped across all queues *)
  stalls : int;  (** producer stalls on full queues *)
  high_watermark : int;  (** deepest backlog across queues *)
}

val parallel_sink :
  ?queues:int ->
  ?queue_capacity:int ->
  ?config:Barracuda.Detector.config ->
  layout:Vclock.Layout.t ->
  Ptx.Ast.kernel ->
  Session.sink * (unit -> stats)
(** Spawn the consumer domains and return the sink with a reader for
    its queue statistics.  [finish] and [abort] join the domains
    (idempotent); [detect_ns] is the busiest domain's time inside the
    detector.  With telemetry enabled the producer side is recorded in
    the ["queue"] span and each consumer feed in ["detect"].
    @raise Invalid_argument if [queues < 1]. *)
