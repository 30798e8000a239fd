(** The recovery stage of the pipeline.

    Owns the run's fault-response state: promotion of verified
    checkpoint snapshots into the recovery point (contiguous-prefix
    rule), rollback of the whole run to that point (the paper's Table 2
    "error recovery" extension), and the abort teardown that kills
    every owned process so the simulation can end. Both share one
    teardown of the live segments, which also flushes the checker
    backend's unsettled work. *)

val note_verified :
  Run_ctx.t -> id:int -> snapshot:Sim_os.Engine.pid option -> unit
(** Segment [id] verified cleanly; its end-of-segment snapshot (if any)
    becomes promotable. Frees snapshots that stop being useful. *)

val recover_or_abort : Run_ctx.t -> unit
(** The response to a final failure. While {!Config.t.recovery} is on
    and fewer than [max_recoveries] rollbacks happened: tear down every
    segment and checker, roll the main process back to the recovery
    point, restart the pipeline there (aborting instead when no
    verified checkpoint is retained). Otherwise {!abort_run}. *)

val abort_run : Run_ctx.t -> unit
(** Terminate the protected run: close dangling trace spans, kill every
    owned process (checkers, snapshots, recovery state, the main). *)
