(** Deterministic cross-shard report merge.

    Each shard's detector reports exactly the races whose shadow cell
    it owns (a disjoint partition, see {!Router}), plus a replicated
    copy of barrier-divergence reports and integrity notes (every shard
    consumes the full record stream).  The merge therefore:

    - unions the race sets — disjoint by construction, deduplicated
      anyway — in a {e sorted} order (location, thread pair, kind pair)
      rather than per-shard detection order, so the merged report is
      byte-stable regardless of consumer-domain interleaving;
    - unions barrier-divergence reports with deduplication (all shards
      saw the same ones);
    - counts distinct races as the sum over shards, so races a capped
      shard detected but never listed still count;
    - takes the per-category {e maximum} of integrity counts: an
      anomaly on the shared producer side is observed once per shard,
      so summing would multiply it by the shard count. *)

val merged :
  layout:Vclock.Layout.t ->
  max_reports:int ->
  Barracuda.Report.t array ->
  Barracuda.Report.t
