(** The record stage of the pipeline: main-process tracer events.

    Slices the main process into segments, records every
    application/OS interaction into the current segment's R/R log
    (§3.2), forks the per-segment checker and checkpoint processes,
    and submits each fully recorded segment to the checker backend
    ({!Checker_backend.submit}). *)

val start_segment : Run_ctx.t -> unit
(** Fork the next checker, open a fresh [Recording] segment as
    [cur], clear dirty tracking, and re-arm the slicer. Also used by
    recovery to restart the pipeline after a rollback. *)

val do_boundary : Run_ctx.t -> unit
(** End the current segment (submitting it to the backend) and, unless
    the main has exited, start the next one. The replayer calls this
    when a completing segment releases a main process held on
    [max_live_segments]. *)

(** What the run must do after a main-process event. *)
type response =
  | Handled  (** nothing further *)
  | Abort
      (** the main died outside the threat model (a signal, or an
          application fault): terminate the protected run *)
  | Recover_or_abort
      (** an injected main-side fault surfaced as an exception and was
          recorded as a detection: roll back if the recovery budget
          allows, abort otherwise *)

val handle_main_event : Run_ctx.t -> Sim_os.Engine.event -> response
