(* Pluggable checker backends (DESIGN.md §18): where and when the
   checks of recorded segments run.

     Inline    — launch each checker the instant its segment finishes
                 recording: the original pipeline, byte-identical.
     Deferred  — queue finished segments and launch [batch] per wakeup,
                 amortizing the cold fork/cache-warmup cost over the
                 batch; [max_lag] bounds unverified segments by
                 backpressuring the recorder (Config.live_limit).
     Remote    — dispatch each check to a pool of simulated checker
                 nodes that chaos can crash, stall, or delay; leases
                 with heartbeat expiry detect lost nodes and re-dispatch
                 to a healthy one.

   All three share one exactly-once supervisor (Backend.Supervisor):
   every recorded segment is settled exactly once, re-dispatches only
   ever re-grant a lease at a higher incarnation, and verdicts arriving
   with a lapsed incarnation are discarded as stale. The backend's state
   is the [Run_ctx.backend] value built with the run; every function
   here matches on it. This module also owns the checker launch itself,
   the one step every backend ends in. *)

module E = Sim_os.Engine
open Run_ctx

(* Simulated launch overhead: a cold launch forks the checker's address
   space view and warms its caches; launches later in a deferred batch
   reuse the warm runtime state. The checker:deferred_batch bench gates
   on the accumulated difference. *)
let cold_launch_ns = 20_000.
let warm_launch_ns = 2_000.

(* Simulated dispatch RPC to a remote node. *)
let rpc_ns = 5_000

(* The window a chaos pre-launch kill lands in: after dispatch, before
   the launch RPC completes. *)
let chaos_prelaunch_window_ns = rpc_ns / 2

(* How soon after launch a chaos crash strikes. *)
let chaos_strike_window_ns = 50_000

(* The backend.* stats rows mirror the supervisor's counters; copied
   when the run's stats are read ({!Coordinator.stats}), not on every
   supervisor update. *)
let sync_stats t =
  let sup = t.backend.sup in
  let b = t.stats.Stats.backend in
  b.Stats.b_dispatched <- Backend.Supervisor.dispatched sup;
  b.Stats.b_redispatched <- Backend.Supervisor.redispatched sup;
  b.Stats.b_leases_expired <- Backend.Supervisor.leases_expired sup;
  b.Stats.b_stale_verdicts <- Backend.Supervisor.stale_verdicts sup;
  b.Stats.b_batches <- Backend.Supervisor.batches sup;
  b.Stats.b_max_lag <- Backend.Supervisor.max_lag sup;
  b.Stats.b_verified <- Backend.Supervisor.settled sup

let charge_launch t seg ~ns =
  let acct = t.stats.Stats.backend in
  acct.Stats.b_launch_ns <- acct.Stats.b_launch_ns + int_of_float ns;
  let pid = Segment.checker seg in
  E.delay t.eng pid ~ns;
  phase_add t ~tracks:[ Obs.Trace.Proc pid ] ~segment:(Segment.id seg)
    "backend_launch" (int_of_float ns)

let draw_pct r pct = pct > 0 && Util.Rng.int r.chaos_rng 100 < pct

let lease t seg ~node =
  Backend.Supervisor.lease t.backend.sup ~id:(Segment.id seg) ~node
    ~incarnation:(Segment.redispatches seg) ~now_ns:(E.now_ns t.eng)
    ~insns:(Machine.Cpu.instructions (E.cpu t.eng (Segment.checker seg)))

(* The lease clock starts at the actual launch — a checker that dies
   before this point is handled by the pre-launch swap, not a heartbeat
   expiry. A remote lease names the node the check runs on, and draws
   that check's chaos. *)
let note_launched t seg =
  match t.backend.kind with
  | Inline | Deferred _ -> lease t seg ~node:(-1)
  | Remote r -> (
    let now = E.now_ns t.eng in
    let node = Backend.Node_pool.pick r.pool ~now_ns:now in
    lease t seg ~node;
    match r.chaos with
    | None -> ()
    | Some c ->
      let inc = Segment.redispatches seg in
      let strike act =
        let due = now + Util.Rng.int r.chaos_rng chaos_strike_window_ns in
        r.actions <- (due, seg, inc, act) :: r.actions
      in
      if draw_pct r c.Config.crash_pct then strike (Crash node)
      else if draw_pct r c.Config.stall_pct then strike (Stall node)
      else if draw_pct r c.Config.late_pct then
        let late = Util.Rng.int r.chaos_rng (max 1 c.Config.late_ns) in
        Hashtbl.replace r.late_draws
          (Segment.id seg, inc)
          (c.Config.late_ns + late))

(* Arm and (for Parallaft) schedule the checker of a segment in
   Awaiting_launch; transitions it to Checking. *)
let launch t seg =
  let checker = Segment.checker seg in
  let r = Segment.recorded seg in
  let targets =
    Replay_step.arm (E.cpu t.eng checker) ~log:r.Segment.log
      ~end_point:r.Segment.end_point ~branch_base:0 ~insn_base:0
      ~insn_delta:r.Segment.insn_delta ~timeout_scale:t.cfg.Config.timeout_scale
      ~plan:t.cfg.Config.fault_plan ~segment:(Segment.id seg)
      ~redispatches:(Segment.redispatches seg)
  in
  (* A streaming checker was launched when recording started and may be
     stalled at its next interaction; a Parallaft checker is launched
     here, once its segment is fully recorded. *)
  let was_streaming = Segment.streaming seg <> None in
  (* Re-check support: fork a pristine spare off the checker before it
     runs — it IS the segment-start snapshot a re-dispatch needs.
     Streaming checkers have already executed, so there is nothing
     pristine to fork and RAFT segments fall through to the normal
     failure path instead. The remote backend forks spares eagerly even
     without the re-check extension: its nodes die for infrastructure
     reasons, and a re-dispatch must always have a snapshot to launch
     from. *)
  if
    (t.cfg.Config.recheck_on_mismatch
    || Config.backend_eager_spares t.cfg.Config.backend)
    && (not was_streaming)
    && Segment.spare seg = None
    && Segment.redispatches seg < Config.redispatch_budget t.cfg
  then begin
    Segment.set_spare seg (Some (E.fork_process t.eng checker));
    t.stats.Stats.checkpoint_count <- t.stats.Stats.checkpoint_count + 1
  end;
  let was_waiting = Segment.waiting seg in
  let launched_at_ns =
    match Segment.launched_at seg with
    | Some ns -> ns
    | None -> E.time_ns t.eng
  in
  Segment.begin_checking seg ~replay:targets.Replay_step.replay
    ~pending_signals:targets.Replay_step.signals ~launched_at_ns;
  note_launched t seg;
  t.stats.Stats.segment_insn_deltas <-
    r.Segment.insn_delta :: t.stats.Stats.segment_insn_deltas;
  observe t "segment.insns" (float_of_int r.Segment.insn_delta);
  emit_ev t ~track:(Obs.Trace.Proc checker) ~phase:Obs.Trace.Instant
    ~args:
      [
        ("seg", Obs.Trace.Int (Segment.id seg));
        ("targets", Obs.Trace.Int (List.length targets.Replay_step.signals + 1));
        ("insns", Obs.Trace.Int r.Segment.insn_delta);
      ]
    "replay.start";
  if not was_streaming then begin
    emit_ev t ~track:(Obs.Trace.Proc checker) ~phase:Obs.Trace.Begin
      ~args:[ ("seg", Obs.Trace.Int (Segment.id seg)) ]
      "check";
    (* The "replay" scope covers the checker's whole check; the
       scheduler's "checker_launch" scope (queue wait + dispatch) nests
       inside it on the same track, so replay self-time excludes it. *)
    phase_enter t ~track:(Obs.Trace.Proc checker) ~segment:(Segment.id seg)
      "replay";
    Scheduler.enqueue t.sched checker
  end
  else if was_waiting then
    (* The streaming checker is stalled at its next interaction. Resuming
       re-raises the stop: if it is resting on the segment-end pc the
       freshly armed breakpoint fires first and completes the segment;
       otherwise the syscall retries against the now-complete log. *)
    E.resume t.eng checker

let drain t queue =
  match Backend.Batcher.take_batch queue with
  | [] -> ()
  | segs ->
    Backend.Supervisor.note_batch t.backend.sup;
    List.iteri
      (fun i seg ->
        if
          (not t.aborted)
          && (not (Segment.torn_down seg))
          && Segment.phase seg = Segment.Awaiting_launch_p
        then begin
          charge_launch t seg
            ~ns:(if i = 0 then cold_launch_ns else warm_launch_ns);
          launch t seg
        end)
      segs

(* A segment finished recording: hand it to the backend. *)
let submit t seg =
  Backend.Supervisor.note_recorded t.backend.sup (Segment.id seg);
  match t.backend.kind with
  | Inline -> launch t seg
  | Deferred queue ->
    Backend.Batcher.push queue seg;
    if Backend.Batcher.ready queue then drain t queue
  | Remote r -> (
    let now = E.now_ns t.eng in
    (* The remote backend forks its spare at dispatch time — before the
       checker ever runs, so it is pristine — because a node can die
       before launch and the replacement needs a snapshot. *)
    if
      Segment.spare seg = None
      && Segment.redispatches seg < Config.redispatch_budget t.cfg
    then begin
      Segment.set_spare seg (Some (E.fork_process t.eng (Segment.checker seg)));
      t.stats.Stats.checkpoint_count <- t.stats.Stats.checkpoint_count + 1
    end;
    r.pending_launches <- r.pending_launches @ [ (now + rpc_ns, seg) ];
    match r.chaos with
    | Some c when draw_pct r c.Config.prelaunch_pct ->
      r.actions <-
        ( now + chaos_prelaunch_window_ns,
          seg,
          Segment.redispatches seg,
          Prelaunch_kill )
        :: r.actions
    | Some _ | None -> ())

(* Progress supervision: true means the lease expired (kill/re-dispatch
   the checker). *)
let heartbeat t seg ~now_ns ~insns ~excused =
  match
    Backend.Supervisor.heartbeat t.backend.sup ~id:(Segment.id seg) ~now_ns
      ~insns ~excused ~budget_ns:t.cfg.Config.watchdog_stall_ns
  with
  | `Ok -> false
  | `Expired -> true

let expired t seg =
  Backend.Supervisor.note_expired t.backend.sup ~id:(Segment.id seg)

(* A checker died in the dispatch-to-launch window (the watchdog has
   already counted the kill); true means the backend swapped in a
   replacement and the segment lives on. Only the remote backend holds
   a spare at this point. *)
let prelaunch_swap t seg =
  match t.backend.kind with
  | Inline | Deferred _ -> false
  | Remote _ -> (
    match Segment.spare seg with
    | Some sp
      when (not t.aborted)
           && Segment.phase seg = Segment.Awaiting_launch_p
           && Segment.redispatches seg < Config.redispatch_budget t.cfg ->
      (* Promote the (pristine) spare and fork a replacement spare off
         it; the still-pending launch RPC will pick the new checker up. *)
      Hashtbl.remove t.roles (Segment.checker seg);
      Segment.replace_checker_prelaunch seg ~checker:sp;
      Hashtbl.replace t.roles sp (Checker_role seg);
      Segment.set_spare seg (Some (E.fork_process t.eng sp));
      t.stats.Stats.checkpoint_count <- t.stats.Stats.checkpoint_count + 1;
      true
    | Some _ | None -> false)

(* A verdict arrived; true means the backend parked it (a remote node
   returning late) and the replayer must not act on it yet. *)
let route_verdict t seg verdict =
  match t.backend.kind with
  | Inline | Deferred _ -> false
  | Remote r -> (
    let key = (Segment.id seg, Segment.redispatches seg) in
    match Hashtbl.find_opt r.late_draws key with
    | None -> false
    | Some delay ->
      (* The node returns its verdict late: park it. The checker has
         finished executing — free its core; its "check" span closes
         when the verdict is finally acted on (or superseded). *)
      Hashtbl.remove r.late_draws key;
      r.parked <-
        (E.now_ns t.eng + delay, seg, Segment.redispatches seg, verdict)
        :: r.parked;
      Scheduler.finished t.sched (Segment.checker seg);
      true)

let settle t seg =
  match
    Backend.Supervisor.settle t.backend.sup ~id:(Segment.id seg)
      ~incarnation:(Segment.redispatches seg)
  with
  | `Ok -> ()
  | `Stale ->
    (* Every path into the replayer's final verdict has already verified
       the verdict's incarnation is current; a stale settle here means
       the routing let a superseded verdict through. *)
    raise
      (Segment.Invariant_violation
         (Printf.sprintf "segment %d settled from a stale incarnation"
            (Segment.id seg)))

(* Rollback/abort already tore the queued, pending and parked segments
   down with the rest of t.live: drop them so the backend never launches
   or delivers them afterwards, and cancel their supervisor entries. *)
let flush t =
  (match t.backend.kind with
  | Inline -> ()
  | Deferred queue -> ignore (Backend.Batcher.clear queue)
  | Remote r ->
    r.pending_launches <- [];
    r.actions <- [];
    Hashtbl.reset r.late_draws;
    r.parked <- []);
  ignore (Backend.Supervisor.cancel_unsettled t.backend.sup)

(* Time-driven backend work. Deferred: a partial batch cannot wait
   forever — drain when the recorder is held on the lag budget, or when
   the main exited and no further recording will top the batch up.
   Remote: due chaos strikes, landed launch RPCs and parked verdicts
   coming due, which [deliver] acts on. *)
let poll t ~deliver =
  match t.backend.kind with
  | Inline -> ()
  | Deferred queue ->
    if
      (not t.aborted)
      && (t.pending_boundary || t.main_exited)
      && not (Backend.Batcher.is_empty queue)
    then drain t queue
  | Remote r ->
    if not t.aborted then begin
      let now = E.now_ns t.eng in
      Backend.Node_pool.tick r.pool ~now_ns:now;
      let due_actions, later =
        List.partition (fun (due, _, _, _) -> now >= due) r.actions
      in
      r.actions <- later;
      let strike_live (_, seg, inc, _) =
        (not (Segment.torn_down seg))
        && (not (Segment.is_done seg))
        && Segment.redispatches seg = inc
      in
      (* Pre-launch kills land before the launch RPCs are processed: a
         kill due in the same poll as its launch must strike while the
         window is still open. The victim pid has never been enqueued,
         so this cannot hand the dispatcher a dead pid. *)
      List.iter
        (fun ((_, seg, _, act) as a) ->
          match act with
          | Prelaunch_kill
            when strike_live a && Segment.phase seg = Segment.Awaiting_launch_p
            ->
            kill_if_alive t (Segment.checker seg)
          | Prelaunch_kill | Crash _ | Stall _ -> ())
        due_actions;
      (* Launch RPCs that have landed. A dead checker keeps its entry:
         the watchdog's pre-launch path swaps the spare in within this
         same event, and the next poll launches the replacement. *)
      let launchable, rest =
        List.partition (fun (due, _) -> now >= due) r.pending_launches
      in
      let kept =
        List.filter
          (fun (_, seg) ->
            if
              Segment.torn_down seg || Segment.is_done seg
              || Segment.phase seg <> Segment.Awaiting_launch_p
            then false
            else
              match E.state t.eng (Segment.checker seg) with
              | E.Exited _ -> true
              | E.Runnable | E.Stopped ->
                charge_launch t seg ~ns:cold_launch_ns;
                launch t seg;
                false)
          launchable
      in
      r.pending_launches <- kept @ rest;
      (* Parked verdicts that have come due. A verdict whose incarnation
         lapsed while parked (the watchdog re-dispatched the silent node
         meanwhile) is stale: discarded, never double-counted. *)
      let due_parked, still_parked =
        List.partition (fun (due, _, _, _) -> now >= due) r.parked
      in
      r.parked <- still_parked;
      List.iter
        (fun (_, seg, inc, verdict) ->
          if (not (Segment.torn_down seg)) && not t.aborted then
            if Segment.is_done seg || Segment.redispatches seg <> inc then
              Backend.Supervisor.note_stale t.backend.sup
            else deliver t seg verdict)
        due_parked;
      (* Crash/stall strikes land last: launches and parked verdicts can
         pull work off the scheduler queue, and a dispatch must never
         see a pid this poll just killed. With the strikes at the end,
         the watchdog — which runs immediately after every backend poll
         — repairs any kill before the next dispatch opportunity. Only a
         checker actually executing is struck: a queued one is still
         sitting in the scheduler, and killing it there would hand the
         dispatcher a dead pid (same contract as the runtime Kill
         fault). *)
      let reboot_until () =
        now + match r.chaos with Some c -> c.Config.reboot_ns | None -> 0
      in
      List.iter
        (fun ((_, seg, _, act) as a) ->
          let running () =
            Segment.phase seg = Segment.Checking_p
            && E.state t.eng (Segment.checker seg) = E.Runnable
          in
          match act with
          | Prelaunch_kill -> ()
          | Crash node when strike_live a && running () ->
            kill_if_alive t (Segment.checker seg);
            Backend.Node_pool.crash r.pool node ~until_ns:(reboot_until ())
          | Stall node when strike_live a && running () ->
            E.suspend t.eng (Segment.checker seg);
            Backend.Node_pool.stall r.pool node ~until_ns:(reboot_until ())
          | Crash _ | Stall _ -> ())
        due_actions
    end
