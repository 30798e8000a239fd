(** The interaction-replay core (§4.2, §4.3.2), shared by the live
    checker ({!Replayer}) and the offline engine ({!Offline}).

    A replayed process re-executes one recorded segment. Every syscall
    and trapped nondeterministic instruction it issues must match the
    next record of the segment's {!Rr_log} and is answered from it:
    effectful syscalls are completed with the recorded result and
    memory effects, process-local ones re-execute in the process with
    anonymous mmaps pinned to the recorded address. External signals
    are delivered at their recorded execution points, and the segment
    end point stops the process where the recording did.

    This module works over an engine pid and an {!Rr_log.cursor}. It
    never resumes the process and knows nothing of scheduling,
    backends, tracing or simulated-time charging: each step returns an
    {!outcome} and the caller acts on it. *)

type outcome =
  | Continue  (** resume the process *)
  | Wait_for_log
      (** the log holds no further interaction {e yet} (RAFT streaming
          replay caught up with the recorder): leave the process
          stopped until the log grows *)
  | Reached_end
      (** the process rests on the recorded segment end with every
          interaction consumed and its instruction budget disarmed *)
  | Failed of Detection.outcome  (** a divergence *)

(** A segment's armed execution-point targets. *)
type targets = {
  replay : Exec_point.replay;
  mutable signals : (Exec_point.t * Sim_os.Sig_num.t) list;
      (** external-signal deliveries still due, in target order; the
          end point is the replay's last target *)
}

val arm :
  Machine.Cpu.t ->
  log:Rr_log.t ->
  end_point:Exec_point.t ->
  branch_base:int ->
  insn_base:int ->
  insn_delta:int ->
  timeout_scale:float ->
  plan:Fault.plan option ->
  segment:int ->
  redispatches:int ->
  targets
(** Arm segment [segment]'s replay on [cpu]. The log's segment-relative
    signal points and [end_point] become targets offset by
    [branch_base] (the cpu's branch count at the segment start);
    signal points the cpu is already past are dropped. The instruction
    budget [max 1000 (timeout_scale * insn_delta)] is armed as an
    overflow at [insn_base + budget]. A checker-side [plan] covering
    the segment is armed too, unless it is one-shot and this is a
    re-dispatched check ([redispatches > 0]). *)

val arg_data :
  Sim_os.Engine.t -> Sim_os.Engine.pid -> Sim_os.Syscall.call -> Bytes.t option
(** The argument bytes a syscall hands the kernel (write payloads,
    open paths), read from the process's memory: what the recorder
    stores as [in_data] and the replay must reproduce. *)

val reexecute :
  ?pin_any_mmap:bool ->
  Sim_os.Engine.t ->
  Sim_os.Engine.pid ->
  Seglog.Record.sys_record ->
  Sim_os.Syscall.call ->
  outcome
(** Re-execute a syscall in the process itself and check its result
    against the record ([Sigreturn] excepted). An anonymous mmap — any
    mmap with [pin_any_mmap] — is pinned to the recorded address with
    [MAP_FIXED], its argument registers restored afterwards. *)

val step :
  Sim_os.Engine.t ->
  Sim_os.Engine.pid ->
  Rr_log.cursor ->
  log_complete:bool ->
  ?answered:(int -> unit) ->
  targets option ->
  Sim_os.Engine.event ->
  outcome
(** Handle one stop of the replayed process. [log_complete] is false
    while the segment is still being recorded. [answered] is called
    with the bytes of memory effects applied after answering a syscall
    from the record. [targets] is [None] before the segment is armed
    (a streaming checker); target stops are then ignored. *)
