(** The [PARALLAFT_INVARIANTS] debug switch.

    One environment variable turns on every debug-only check in the
    simulator: the segment-pipeline sweeps (the default of
    [Config.check_invariants]) and the frame allocator's poisoning of
    freed page buffers ([Mem.Frame]). [make invariants] runs the whole
    test suite with it set. *)

val enabled : unit -> bool
(** [true] iff [PARALLAFT_INVARIANTS] is set to anything but [""] or
    ["0"]. Read on every call. *)
