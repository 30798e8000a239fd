(* The interaction-replay core shared by the live checker (Replayer) and
   the offline engine (Offline): arm a segment's replay, answer the
   replayed process's interactions from the segment's R/R log, and
   stop it at the recorded execution points. Every step returns an
   outcome; the caller resumes, waits, compares or fails. *)

module E = Sim_os.Engine
module R = Seglog.Record
module Syscall = Sim_os.Syscall

type outcome =
  | Continue
  | Wait_for_log
  | Reached_end
  | Failed of Detection.outcome

type targets = {
  replay : Exec_point.replay;
  mutable signals : (Exec_point.t * Sim_os.Sig_num.t) list;
}

let arm cpu ~log ~end_point ~branch_base ~insn_base ~insn_delta ~timeout_scale
    ~plan ~segment ~redispatches =
  let shift (p : Exec_point.t) =
    { p with Exec_point.branches = p.Exec_point.branches + branch_base }
  in
  (* A streaming checker may already have executed past some signal
     points; only the remaining ones become targets. *)
  let signals =
    List.filter_map
      (fun (at, signum) ->
        let at = shift at in
        if at.Exec_point.branches >= Machine.Cpu.branches cpu then
          Some (at, signum)
        else None)
      (Rr_log.signal_points log)
  in
  let targets = List.map fst signals @ [ shift end_point ] in
  let replay = Exec_point.start_replay ~targets ~cpu in
  (* Runaway kill switch: diverged control flow that never reaches the
     recorded end point must not spin until the simulation bound. *)
  let budget =
    max 1000 (int_of_float (timeout_scale *. float_of_int insn_delta))
  in
  Machine.Cpu.arm_insn_overflow cpu ~target:(insn_base + budget);
  (* A one-shot plan must not chase the segment onto its re-dispatched
     checker (the re-check would then re-inject the very fault it is
     ruling out); a [repeat] plan is stuck-at and re-arms everywhere it
     applies. Main-side plans corrupt the recording, not the replay. *)
  (match plan with
  | Some plan
    when Fault.targets_checker plan
         && Fault.covers plan ~id:segment
         && (plan.Fault.repeat || redispatches = 0) ->
    Fault.arm_on_cpu cpu plan
  | Some _ | None -> ());
  { replay; signals }

let arg_data eng pid (call : Syscall.call) =
  let read ~addr ~len =
    try Some (Mem.Address_space.read_bytes (E.aspace eng pid) ~addr ~len)
    with Mem.Address_space.Segfault _ -> None
  in
  match call with
  | Syscall.Write { addr; len; _ } -> read ~addr ~len
  | Syscall.Open { path_addr; path_len; _ } -> read ~addr:path_addr ~len:path_len
  | _ -> None

let mismatch m = Failed (Detection.Detected m)

let reexecute ?(pin_any_mmap = false) eng pid (r : R.sys_record) call =
  let cpu = E.cpu eng pid in
  let restore_args =
    match (call : Syscall.call) with
    | Syscall.Mmap { addr; flags; _ }
      when pin_any_mmap || flags land Syscall.map_anon <> 0 ->
      (* Defeat ASLR divergence: pin the mapping to the address the
         kernel gave the main process (§4.3.2). The original argument
         registers are restored afterwards so the rewrite is invisible
         to the program-state comparison. *)
      Machine.Cpu.set_reg cpu 1 r.R.result;
      Machine.Cpu.set_reg cpu 4 (flags lor Syscall.map_fixed);
      Some (addr, flags)
    | _ -> None
  in
  E.do_syscall eng pid;
  (match restore_args with
  | Some (addr, flags) ->
    Machine.Cpu.set_reg cpu 1 addr;
    Machine.Cpu.set_reg cpu 4 flags
  | None -> ());
  let got = Machine.Cpu.get_reg cpu 0 in
  if call <> Syscall.Sigreturn && got <> r.R.result then
    let show v = Printf.sprintf "%s = %d" (Syscall.name call) v in
    mismatch (Detection.Syscall_mismatch { expected = show r.R.result; got = show got })
  else Continue

let syscall eng pid cursor ~log_complete ~answered call =
  let name = Syscall.name call in
  match Rr_log.next_interaction cursor with
  | None when not log_complete -> Wait_for_log
  | None -> mismatch (Detection.Extra_interaction { got = name })
  | Some (R.Nondet _ | R.Ext_signal _) ->
    mismatch
      (Detection.Syscall_mismatch
         { expected = "nondeterministic instruction"; got = name })
  | Some (R.Sys r) when r.R.call <> call ->
    mismatch
      (Detection.Syscall_mismatch { expected = Syscall.name r.R.call; got = name })
  | Some (R.Sys r) -> (
    let data_matches =
      match r.R.in_data with
      | None -> true
      | Some expected -> (
        match arg_data eng pid call with
        | Some b -> Bytes.equal b expected
        | None -> false)
    in
    if not data_matches then
      mismatch (Detection.Syscall_data_mismatch { syscall = name })
    else
      match Syscall.categorize call with
      | Syscall.Process_local -> reexecute eng pid r call
      | Syscall.Globally_effectful | Syscall.Non_effectful ->
        (* Never re-executed: answer from the record so external effects
           happen exactly once. *)
        E.complete_syscall eng pid ~result:r.R.result;
        let bytes =
          List.fold_left
            (fun acc { R.addr; data } ->
              ignore (Mem.Address_space.write_bytes (E.aspace eng pid) ~addr data);
              acc + Bytes.length data)
            0 r.R.effects
        in
        answered bytes;
        Continue)

let nondet eng pid cursor ~log_complete insn =
  match Rr_log.next_interaction cursor with
  | None when not log_complete -> Wait_for_log
  | Some (R.Nondet { insn = recorded; value }) when recorded = insn ->
    let cpu = E.cpu eng pid in
    (match Isa.Insn.writes_reg insn with
    | Some reg -> Machine.Cpu.set_reg cpu reg value
    | None -> ());
    Machine.Cpu.set_pc cpu (Machine.Cpu.get_pc cpu + 1);
    Continue
  | Some (R.Sys r) ->
    mismatch
      (Detection.Syscall_mismatch
         { expected = Syscall.name r.R.call; got = "nondet instruction" })
  | Some (R.Nondet _ | R.Ext_signal _) | None ->
    mismatch (Detection.Extra_interaction { got = "nondet instruction" })

(* Deliver every signal due at the point just reached, then either keep
   going towards the next target or, at the end point, require the log
   to be fully consumed. *)
let rec advance eng pid cursor targets (adv : Exec_point.advance) =
  match adv with
  | Exec_point.Keep_running -> Continue
  | Exec_point.Reached pt -> (
    match targets.signals with
    | (spt, signum) :: rest when Exec_point.compare spt pt = 0 -> (
      targets.signals <- rest;
      E.deliver_signal_now eng pid signum;
      match E.state eng pid with
      | E.Exited _ ->
        (* The signal's default action killed the replay — the main
           survived it, so this is a divergence. *)
        Failed (Detection.Exception_detected "killed by replayed signal")
      | E.Runnable | E.Stopped ->
        Exec_point.next_target targets.replay;
        advance eng pid cursor targets (Exec_point.poll targets.replay))
    | _ ->
      Machine.Cpu.disarm_insn_overflow (E.cpu eng pid);
      if Rr_log.remaining_interactions cursor > 0 then
        mismatch
          (Detection.Syscall_mismatch
             { expected = "further recorded interactions"; got = "segment end" })
      else Reached_end)

let fault_to_string (f : Machine.Cpu.fault) =
  match f with
  | Machine.Cpu.Segv { addr; write } ->
    Printf.sprintf "SIGSEGV at %#x (%s)" addr (if write then "write" else "read")
  | Machine.Cpu.Div_by_zero -> "SIGFPE (division by zero)"
  | Machine.Cpu.Bad_pc pc -> Printf.sprintf "control flow left the code (pc=%d)" pc

let at_target eng pid cursor targets on_stop =
  match targets with
  | Some tg -> advance eng pid cursor tg (on_stop tg.replay)
  | None -> Continue

let step eng pid cursor ~log_complete ?(answered = ignore) targets (ev : E.event) =
  match ev with
  | E.Syscall_entry call -> syscall eng pid cursor ~log_complete ~answered call
  | E.Nondet insn -> nondet eng pid cursor ~log_complete insn
  | E.Branch_overflow ->
    at_target eng pid cursor targets Exec_point.on_branch_overflow
  | E.Breakpoint -> at_target eng pid cursor targets Exec_point.on_breakpoint
  | E.Insn_overflow -> Failed Detection.Timeout_detected
  | E.Fault f -> Failed (Detection.Exception_detected (fault_to_string f))
  | E.Halted -> Failed (Detection.Exception_detected "checker ran past the segment end")
  | E.Cycle_overflow -> Continue
  | E.Signal _ ->
    (* External signals target the main process; recorded there and
       replayed by execution point, never delivered here directly. *)
    Continue
