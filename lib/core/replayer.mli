(** The replay/check stage of the pipeline: checker tracer events.

    The replay mechanics — arming the segment's execution-point targets,
    instruction budget and checker-side fault plan, answering the
    checker's interactions from the segment's R/R log, delivering
    recorded signals, stopping at the segment end — live in
    {!Replay_step}, shared with the offline engine ({!Offline}). This
    module wraps them in the live pipeline: it traces and charges
    checker replay ({!Checker_backend.launch} armed and scheduled the
    checker), acts on each
    {!Replay_step.outcome} (resume, stall a streaming checker, fail),
    runs the program-state comparison against the main's snapshot at
    the segment end, and classifies the verdict. A failed check is
    handed to {!Recovery} (rollback or abort) — unless the re-check
    extension can still retry it on a fresh checker (DESIGN.md §13); a
    completing segment may release a main process held on
    [max_live_segments] back through {!Recorder.do_boundary}. *)

val deliver_verdict :
  ?infra:bool -> Run_ctx.t -> Segment.t -> Detection.outcome option -> unit
(** Act on a check's verdict ([None] = verified) now: a failure is
    re-dispatched onto the spare when the re-check machinery still has
    budget, and a final outcome is recorded (possibly reclassified
    {!Detection.Hard_fault} right after a rollback) and answered with
    rollback or abort. Every verdict of a checker event passes the
    backend's router ({!Checker_backend.route_verdict}) first, which may
    park it; the coordinator hands this function to
    {!Checker_backend.poll}, which calls it when a parked verdict comes
    due. [~infra:true] marks an infrastructure failure (the checker died
    or stalled without a verdict — watchdog/lease expiry): the remote
    backend's retry budget then also allows a re-dispatch, without the
    re-check extension. *)

val handle_checker_event : Run_ctx.t -> Segment.t -> Sim_os.Engine.event -> unit
