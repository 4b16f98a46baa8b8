(** The sharded detection engine: one detector domain per shard.

    One job's shadow state is split across [N] shards by the
    deterministic {!Router}; each shard runs an unchanged
    [Barracuda.Detector] restricted to its cells (the detector's
    [?owns] predicate) over its own bounded SPSC ring of in-place wire
    records, on its own domain.

    The producer {e broadcasts}: every record — data access,
    branch, barrier, fence-role access — is sealed once with a global
    sequence number (the {e epoch} stamp) and committed to every
    shard's ring.  Each shard therefore observes the identical totally
    ordered stream, so warp clocks, divergence stacks, and
    synchronization state evolve bit-identically on every shard, and
    every shard applies a barrier or release/acquire edge at the same
    epoch boundary without any cross-shard handshake.  Only the
    shadow-cell {e checks} are partitioned: a given cell is checked by
    exactly one shard, making the per-shard race sets disjoint and
    their union equal to the serial detector's.

    A shard ring is strictly SPSC (the broadcasting producer, the
    shard's consumer domain), so the per-record transport cost is one
    280-byte blit + commit per shard.

    If a shard's consumer domain dies mid-job (fault injection, or a
    real bug), the engine fails the whole job loudly with
    {!Shard_crashed}: a merge over the surviving shards would be a
    silently incomplete verdict. *)

type t

exception Shard_crashed of int
(** A shard's consumer domain died before consuming its full stream;
    the job's verdict is unrecoverable.  Carries the shard index. *)

val create :
  ?router:Router.t ->
  ?ring_capacity:int ->
  ?fault:Fault.Plan.t ->
  ?config:Barracuda.Detector.config ->
  layout:Vclock.Layout.t ->
  shards:int ->
  Ptx.Ast.kernel ->
  t
(** Spawns [shards] consumer domains immediately.  [router] defaults
    to [Router.make ~shards ()]; its shard count must match.
    [ring_capacity] defaults to 4096 records per shard.  [fault] is
    consulted for shard-crash injection only (transport faults live in
    [Gpu_runtime.Session.serial_sink]).  @raise Invalid_argument on [shards < 1]
    or a router/shard-count mismatch. *)

val shards : t -> int

val scratch : t -> Bytes.t
(** The producer's staging buffer: serialize one wire record at offset
    0 with the [Barracuda.Wire] writers, then call {!broadcast}.
    Owned by the producer; never touched by consumers. *)

val broadcast : t -> values:int64 array -> sync:bool -> unit
(** Seal the record currently in {!scratch} with the next global
    sequence number and commit a copy into every shard's ring,
    blocking (with backoff) on any ring that is full.  [sync] marks
    synchronization records (barriers, acquire/release-role accesses)
    for the broadcast-epoch histogram; it does not change routing —
    every record is broadcast.  @raise Shard_crashed instead of
    blocking forever on a ring whose consumer has died. *)

val quiesce : t -> unit
(** Wait until every shard ring is fully drained {e without} stopping
    the consumers — the epoch-aligned barrier behind streaming
    checkpoints: on return, every broadcast record has been detected
    and per-shard state is stable until the producer broadcasts again.
    Producer-side call (same caller as {!broadcast}).
    @raise Shard_crashed if a consumer died, since its ring would
    never drain. *)

val finish : t -> unit
(** Stop producing, drain, and join every consumer domain.
    @raise Shard_crashed if any consumer died.  Idempotent. *)

val abort : t -> unit
(** Like {!finish} but never raises: used on the producer's unwind
    path so domains are joined before the original exception
    propagates. *)

val detectors : t -> Barracuda.Detector.t array
(** Per-shard detectors; meaningful after {!finish}. *)

val report : t -> max_reports:int -> Barracuda.Report.t
(** The merged, deterministic job report (see {!Merge}).  Call after
    {!finish}. *)

val detect_ns : t -> int64
(** Wall-clock attributable to detection: the busiest consumer
    domain's cumulative time inside [feed_record_from].  Valid after
    {!finish}. *)

val records : t -> int
(** Records broadcast (stream length, not multiplied by the shard
    count). *)
