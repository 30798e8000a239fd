(* The replay/check stage: everything driven by checker tracer events.
   Steps checker replay through Replay_step, compares program state at
   the segment end, classifies divergences, and re-dispatches a failed
   check onto its spare. *)

module E = Sim_os.Engine
open Run_ctx

(* Kill the current checker and relaunch the check on the pristine
   spare. The dying checker's "check" span closes here, before the
   replacement opens a new one on its own track, so span nesting stays
   balanced across re-dispatches. *)
let redispatch_check t seg ~because outcome =
  let old = Segment.checker seg in
  let spare =
    match Segment.spare seg with
    | Some sp -> sp
    | None ->
      raise
        (Segment.Invariant_violation
           (Printf.sprintf "segment %d: re-dispatch with no spare"
              (Segment.id seg)))
  in
  (* The old checker may carry the armed/fired injection; latch it
     before the pid (and its cpu) goes away. *)
  (match t.cfg.Config.fault_plan with
  | Some plan
    when Fault.targets_checker plan && Fault.covers plan ~id:(Segment.id seg) ->
    t.stats.Stats.fi_fired <-
      t.stats.Stats.fi_fired || Machine.Cpu.fault_injected (E.cpu t.eng old)
  | Some _ | None -> ());
  emit_ev t ~track:(Obs.Trace.Proc old) ~phase:Obs.Trace.End
    ~args:
      [
        ("seg", Obs.Trace.Int (Segment.id seg));
        ("outcome", Obs.Trace.Str ("re-dispatched: " ^ because));
      ]
    "check";
  (match Segment.launched_at seg with
  | Some ns ->
    observe t "checker.latency_ns" (float_of_int (E.time_ns t.eng - ns))
  | None -> ());
  kill_if_alive t old;
  Scheduler.finished t.sched old;
  phase_leave t ~track:(Obs.Trace.Proc old) "replay";
  Hashtbl.remove t.roles old;
  t.stats.Stats.rechecks <- t.stats.Stats.rechecks + 1;
  (* The first failure in the chain is what a passing re-check
     resolves; a watchdog retry of an already re-checked segment keeps
     the original. *)
  if Segment.recheck_of seg = None then
    Segment.set_recheck_of seg (Some outcome);
  Segment.redispatch seg ~checker:spare;
  Hashtbl.replace t.roles spare (Checker_role seg);
  emit_ev t ~track:Obs.Trace.Run ~phase:Obs.Trace.Instant
    ~args:
      [
        ("seg", Obs.Trace.Int (Segment.id seg));
        ("trigger", Obs.Trace.Str because);
        ("outcome", Obs.Trace.Str (Detection.outcome_to_string outcome));
      ]
    "recheck";
  (match t.cfg.Config.obs with
  | None -> ()
  | Some s -> Obs.Sink.incr s "rechecks");
  Checker_backend.launch t seg

(* May this failure be retried on a fresh checker before it counts as a
   detection? Bounded by the re-dispatch budget (>= 1 so the plain
   re-check always gets its one shot); needs the spare the re-check
   machinery forks at launch. An infrastructure failure (the checker
   died or stalled, it did not produce a verdict) is also retried by the
   remote backend without the re-check extension — a node death says
   nothing about the program. *)
let can_redispatch ?(infra = false) t seg =
  (t.cfg.Config.recheck_on_mismatch
  || (infra && Config.backend_eager_spares t.cfg.Config.backend))
  && Segment.spare seg <> None
  && Segment.redispatches seg < Config.redispatch_budget t.cfg

let really_finish_checker t seg outcome_opt =
  let checker = Segment.checker seg in
  let launched_at_ns =
    match Segment.launched_at seg with Some ns -> ns | None -> 0
  in
  let snapshot = Segment.snapshot seg in
  Segment.complete seg;
  let cpu = E.cpu t.eng checker in
  Machine.Cpu.disarm_insn_overflow cpu;
  Machine.Cpu.disarm_branch_overflow cpu;
  Machine.Cpu.disarm_fault_injection cpu;
  Machine.Cpu.clear_all_breakpoints cpu;
  (* Persistent-fault classification: a detection after a rollback,
     before the verified prefix has advanced again, means re-execution
     reproduced the failure — burning the remaining recovery budget on
     further rollbacks cannot help. *)
  let outcome_opt =
    match outcome_opt with
    | Some o
      when t.cfg.Config.recovery
           && t.rollback_anchor <> None
           && not t.verified_since_rollback ->
      Some
        (Detection.Hard_fault
           {
             segment = Segment.id seg;
             rollbacks = t.stats.Stats.recoveries;
             last = Detection.outcome_to_string o;
           })
    | x -> x
  in
  (* A passing re-check resolves the original failure as the checker's
     own: transient, no rollback, the run continues. *)
  let transient =
    match (outcome_opt, Segment.recheck_of seg) with
    | None, Some orig ->
      Some (Detection.Transient_checker_fault (Detection.outcome_to_string orig))
    | _ -> None
  in
  (* Fault-injection classification for this run (checker-side targets;
     main-side plans are classified at run level by Runtime). *)
  (match t.cfg.Config.fault_plan with
  | Some plan
    when Fault.targets_checker plan && Fault.covers plan ~id:(Segment.id seg) ->
    t.stats.Stats.fi_fired <-
      t.stats.Stats.fi_fired || Machine.Cpu.fault_injected cpu;
    t.stats.Stats.fi_outcome <-
      (match (outcome_opt, transient) with
      | Some o, _ -> Some o
      | None, Some tr -> Some tr
      | None, None ->
        if t.stats.Stats.fi_fired then Some Detection.Benign else None)
  | Some _ | None -> ());
  (match transient with
  | Some tr ->
    t.stats.Stats.transient_faults <- t.stats.Stats.transient_faults + 1;
    emit_ev t ~track:Obs.Trace.Run ~phase:Obs.Trace.Instant
      ~args:
        [
          ("seg", Obs.Trace.Int (Segment.id seg));
          ("outcome", Obs.Trace.Str (Detection.outcome_to_string tr));
        ]
      "recheck.transient";
    (match t.cfg.Config.obs with
    | None -> ()
    | Some s -> Obs.Sink.incr s "transient_faults")
  | None -> ());
  (match outcome_opt with
  | Some o -> record_detection t seg o
  | None -> ());
  (match outcome_opt with
  | Some (Detection.Hard_fault _) ->
    t.stats.Stats.hard_faults <- t.stats.Stats.hard_faults + 1
  | Some _ | None -> ());
  emit_ev t ~track:(Obs.Trace.Proc checker) ~phase:Obs.Trace.End
    ~args:
      [
        ("seg", Obs.Trace.Int (Segment.id seg));
        ( "outcome",
          Obs.Trace.Str
            (match (outcome_opt, transient) with
            | Some o, _ -> Detection.outcome_to_string o
            | None, Some tr -> Detection.outcome_to_string tr
            | None, None -> "ok") );
      ]
    "check";
  observe t "checker.latency_ns"
    (float_of_int (E.time_ns t.eng - launched_at_ns));
  kill_if_alive t checker;
  kill_spare t seg;
  (* Exactly-once settling: the supervisor retires the segment's lease
     (and would raise on a double settle). *)
  Checker_backend.settle t seg;
  let failed = outcome_opt <> None in
  (if t.cfg.Config.recovery && not failed then
     Recovery.note_verified t ~id:(Segment.id seg) ~snapshot
   else
     match snapshot with
     | Some snap -> kill_if_alive t snap
     | None -> ());
  t.live <- List.filter (fun s -> Segment.id s <> Segment.id seg) t.live;
  Scheduler.finished t.sched checker;
  phase_leave t ~track:(Obs.Trace.Proc checker) "replay";
  if failed then begin
    match outcome_opt with
    | Some (Detection.Hard_fault _) ->
      (* Structured diagnostics (segment, rollbacks, last outcome) are
         already in the recorded outcome; stop burning the budget. *)
      Recovery.abort_run t
    | _ -> Recovery.recover_or_abort t
  end
  else if t.main_exited && t.cur = None && t.live = [] then
    (* The last checker verified after a clean main exit: the run is
       fully checked, so the retained recovery state has no further
       purpose — free it or the engine never reaches zero live
       processes. *)
    release_recovery_state t
  else if t.pending_boundary && live_count t < live_limit t then begin
    t.pending_boundary <- false;
    Scheduler.set_main_held t.sched false;
    phase_leave t ~track:(main_track t) "main_held";
    Recorder.do_boundary t
  end

(* Act on a verdict: if the re-check machinery can still retry a failure
   on a fresh checker, it is not yet a detection. The backend's verdict
   router has already had its chance to park or discard — except for an
   infrastructure failure ([infra]: the checker died or stalled without
   producing a verdict), which has nothing to park. *)
let deliver_verdict ?infra t seg outcome_opt =
  match outcome_opt with
  | Some o when can_redispatch ?infra t seg ->
    redispatch_check t seg ~because:"checker-side failure" o
  | _ -> really_finish_checker t seg outcome_opt

(* Every verdict funnels through here: the backend may park it (a
   remote node returning late) or discard it (stale incarnation), in
   which case the replayer must not act yet — the backend's poll, driven
   by the coordinator, calls {!deliver_verdict} when (if) the verdict
   becomes due. *)
let finish_checker t seg outcome_opt =
  if not (Checker_backend.route_verdict t seg outcome_opt) then
    deliver_verdict t seg outcome_opt

(* The checker rests on the recorded segment end with its log fully
   consumed: compare its state against the main's end-of-segment
   snapshot. *)
let reached_end t seg =
  let c = Segment.checking seg in
  let cpu = E.cpu t.eng (Segment.checker seg) in
  if t.cfg.Config.compare_states then begin
    match c.Segment.snapshot with
    | None -> finish_checker t seg None
    | Some snap ->
      let checker_dirty =
        Dirty_tracker.collect t.cfg.Config.dirty_backend
          (page_table_of t (Segment.checker seg))
      in
      let union = Comparator.union_sorted c.Segment.main_dirty checker_dirty in
      let verdict, cs =
        Comparator.compare_states ~hasher:t.cfg.Config.hasher
          ~reference:(E.cpu t.eng snap) ~candidate:cpu ~dirty_vpns:union ()
      in
      let bytes = cs.Comparator.bytes_hashed in
      charge_hash t ~segment:(Segment.id seg) (Segment.checker seg) ~bytes;
      t.stats.Stats.bytes_hashed <- t.stats.Stats.bytes_hashed + bytes;
      t.stats.Stats.pages_skipped_identical <-
        t.stats.Stats.pages_skipped_identical
        + cs.Comparator.pages_skipped_identical;
      t.stats.Stats.page_hash_misses <-
        t.stats.Stats.page_hash_misses + (bytes / (plat t).Platform.page_size);
      t.stats.Stats.segments_compared <- t.stats.Stats.segments_compared + 1;
      emit_ev t ~track:(Obs.Trace.Proc (Segment.checker seg))
        ~phase:Obs.Trace.Instant
        ~args:
          [
            ("seg", Obs.Trace.Int (Segment.id seg));
            ("bytes", Obs.Trace.Int bytes);
            ( "skipped_identical",
              Obs.Trace.Int cs.Comparator.pages_skipped_identical );
            ( "verdict",
              Obs.Trace.Str
                (match verdict with
                | Comparator.Match -> "match"
                | Comparator.Mismatch _ -> "mismatch") );
          ]
        "compare";
      observe t "compare.bytes" (float_of_int bytes);
      observe t "compare.pages_skipped"
        (float_of_int cs.Comparator.pages_skipped_identical);
      finish_checker t seg
        (match verdict with
        | Comparator.Match -> None
        | Comparator.Mismatch m -> Some (Detection.Detected m))
  end
  else finish_checker t seg None

let handle_checker_event t seg ev =
  if Segment.is_done seg then () (* stale event after the segment completed *)
  else begin
    let checker = Segment.checker seg in
    (match (ev : E.event) with
    | E.Syscall_entry call ->
      emit_ev t ~track:(Obs.Trace.Proc checker) ~phase:Obs.Trace.Instant
        ~args:[ ("call", Obs.Trace.Str (Sim_os.Syscall.name call)) ]
        "sys.replay"
    | _ -> ());
    let cursor =
      match Segment.cursor seg with
      | Some c -> c
      | None ->
        raise
          (Segment.Invariant_violation
             (Printf.sprintf "segment %d: checker event with no replay cursor"
                (Segment.id seg)))
    in
    let targets =
      match Segment.state seg with
      | Segment.Checking c -> Some c.Segment.targets
      | Segment.Recording _ | Segment.Awaiting_launch _ | Segment.Done -> None
    in
    match
      Replay_step.step t.eng checker cursor
        ~log_complete:(Segment.phase seg <> Segment.Recording_p)
        ~answered:(fun bytes ->
          charge_record t ~segment:(Segment.id seg) checker ~bytes)
        targets ev
    with
    | Replay_step.Continue -> E.resume t.eng checker
    | Replay_step.Wait_for_log -> Segment.set_waiting seg true
    | Replay_step.Reached_end -> reached_end t seg
    | Replay_step.Failed o -> finish_checker t seg (Some o)
  end
