(** Intra-basic-block logging redundancy elimination (§4.1).

    Following RedCard-style reasoning, BARRACUDA skips the logging call
    for a memory access whose address register has not changed since an
    earlier logged access to the same address within the same basic
    block: the earlier log entry already captures the race-relevant
    event, and same-thread accesses in one block are program-ordered.

    [redundant k] marks, per instruction, the accesses whose logging the
    optimized instrumentation drops.  An access is keyed by (kind, state
    space, base operand, offset, width): a load stands in only for a
    later load and a store only for a later store — a logged load
    records no write, so a store it stood in for would vanish from the
    detector's write history.  A key dies when its base register is
    overwritten, and all keys die at basic-block boundaries, barriers
    and fences (fences change the synchronization role of neighbouring
    accesses). *)

val redundant : ?exclude:bool array -> Ptx.Ast.kernel -> bool array
(** [exclude] masks instructions (by original index) that must neither
    serve as the earlier-access witness nor be marked redundant —
    the instrumentation pass excludes statically-pruned accesses, whose
    log records will not exist at runtime. *)
