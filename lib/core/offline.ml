(* Offline replay of a persisted segment log: one traced process
   re-executes the recorded history in a fresh simulation, driven by
   the interaction-replay core the live checker uses (Replay_step), and
   every segment boundary is re-checked against the recorded registers
   and dirty-page payloads. *)

module E = Sim_os.Engine
module R = Seglog.Record

type reg_diff = {
  reg : int;
  expected : int;
  got : int;
}

type page_diff = {
  vpn : int;
  offset : int;
  expected : int;
  got : int;
}

type divergence = {
  segment : int;
  point : Exec_point.t;
  reason : string;
  reg_diffs : reg_diff list;
  page_diff : page_diff option;
}

type verdict =
  | Verified of {
      segments : int;
      final_hash : int64 option;
      final_hash_matches : bool option;
    }
  | Diverged of divergence

(* Same hang bound as the live runtime. *)
let max_sim_ns = 2_000_000_000

type state = {
  eng : E.t;
  mutable pid : E.pid;
  segs : R.segment array;
  plan : Fault.plan option;  (* re-armed checker-side injections *)
  timeout_scale : float;
  final_hash : int64 option;
  mutable idx : int;  (* current segment index into [segs] *)
  mutable cursor : Rr_log.cursor;  (* over the current segment's events *)
  mutable preamble : R.sys_record list;  (* boundary syscalls still pending *)
  mutable targets : Replay_step.targets option;
  mutable seg_start_branches : int;
  mutable outcome : verdict option;
}

let cpu st = E.cpu st.eng st.pid
let aspace st = E.aspace st.eng st.pid
let page_table st = Mem.Address_space.page_table (aspace st)
let cur_seg st = st.segs.(st.idx)

(* The current position, segment-relative — the coordinate system the
   recorded execution points use. *)
let rel_point st =
  let c = cpu st in
  {
    Exec_point.branches = Machine.Cpu.branches c - st.seg_start_branches;
    pc = Machine.Cpu.get_pc c;
  }

let kill_pid st =
  match E.state st.eng st.pid with
  | E.Exited _ -> ()
  | E.Runnable | E.Stopped -> E.kill st.eng st.pid

let diverge st ?(reg_diffs = []) ?page_diff reason =
  (match st.outcome with
  | Some _ -> ()
  | None ->
    st.outcome <-
      Some
        (Diverged
           { segment = (cur_seg st).R.id; point = rel_point st; reason; reg_diffs; page_diff }));
  kill_pid st

let fail st outcome = diverge st (Detection.outcome_to_string outcome)

(* Inject recorded bytes without going through the store path: the
   content of a boundary file mapping is not a program store, so it
   must not set soft-dirty bits (the live main's equivalent writes
   happened before the segment's dirty window opened). Safe in-place:
   the offline process never forks, so no frame is COW-shared. *)
let inject_bytes st ~addr data =
  let sp = aspace st in
  let pt = page_table st in
  let ps = Mem.Address_space.page_size sp in
  let len = Bytes.length data in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let vpn = Mem.Address_space.vpn_of_addr sp a in
    let off = a - (vpn * ps) in
    let n = min (ps - off) (len - !pos) in
    (if Mem.Page_table.is_mapped pt ~vpn then
       let page = Mem.Page_table.read_bytes_at pt ~vpn in
       Bytes.blit data !pos page off n);
    pos := !pos + n
  done

(* ------------------------------------------------------------------ *)
(* Segment lifecycle                                                    *)

let arm_segment st =
  let seg = cur_seg st in
  let c = cpu st in
  st.seg_start_branches <- Machine.Cpu.branches c;
  let log = Rr_log.create () in
  List.iter (Rr_log.record log) seg.R.events;
  st.cursor <- Rr_log.cursor log;
  st.preamble <- seg.R.preamble;
  (* Boundary mmaps execute before the segment's first instruction;
     their fresh mappings must not pollute the dirty window, so the
     soft-dirty clear waits until the preamble has been consumed
     (mirroring the live ordering: mmap_split runs do_syscall before
     start_segment clears the bits). *)
  if st.preamble = [] then Mem.Page_table.clear_soft_dirty (page_table st);
  (* Main-side fault plans are never armed: their corruption is baked
     into the recorded payloads, which the fault-free re-execution then
     fails to match. *)
  st.targets <-
    Some
      (Replay_step.arm c ~log ~end_point:seg.R.end_point
         ~branch_base:st.seg_start_branches
         ~insn_base:(Machine.Cpu.instructions c) ~insn_delta:seg.R.insn_delta
         ~timeout_scale:st.timeout_scale ~plan:st.plan ~segment:seg.R.id
         ~redispatches:0)

let finish_run st =
  let verified final_hash_matches =
    st.outcome <-
      Some
        (Verified
           {
             segments = Array.length st.segs;
             final_hash = st.final_hash;
             final_hash_matches;
           });
    kill_pid st
  in
  match st.final_hash with
  | None -> verified None
  | Some recorded ->
    let got = Stats.state_digest (cpu st) (page_table st) in
    if got <> recorded then
      diverge st
        (Printf.sprintf "final state hash mismatch (recorded %Lx, got %Lx)"
           recorded got)
    else verified (Some true)

(* First difference between a recorded dirty page and the replayed one:
   a missing mapping, a differing byte, or a differing size. *)
let page_mismatch pt (vpn, expected) =
  if not (Mem.Page_table.is_mapped pt ~vpn) then
    Some (Printf.sprintf "recorded dirty page %d is not mapped" vpn, None)
  else
    let got = Mem.Page_table.read_bytes_at pt ~vpn in
    let n = min (Bytes.length got) (Bytes.length expected) in
    let rec first off =
      if off = n then None
      else if Bytes.get expected off <> Bytes.get got off then Some off
      else first (off + 1)
    in
    match if Bytes.equal got expected then None else first 0 with
    | Some offset ->
      let byte b = Char.code (Bytes.get b offset) in
      Some
        ( Printf.sprintf "memory state mismatch in page %d" vpn,
          Some { vpn; offset; expected = byte expected; got = byte got } )
    | None when Bytes.length got <> Bytes.length expected ->
      Some
        ( Printf.sprintf "page %d size mismatch (recorded %d, got %d)" vpn
            (Bytes.length expected) (Bytes.length got),
          None )
    | None -> None

(* The replay reached the recorded segment end with its log consumed:
   compare against the recorded payloads (where the live checker
   compares against a snapshot fork of the main). *)
let end_of_segment st =
  let seg = cur_seg st in
  let c = cpu st in
  let pt = page_table st in
  Machine.Cpu.disarm_fault_injection c;
  (* Retire the end target: with the queue empty this clears the
     breakpoint and the branch-overflow arming. *)
  (match st.targets with
  | Some tg -> Exec_point.next_target tg.Replay_step.replay
  | None -> ());
  let got_regs = Machine.Cpu.snapshot_regs c in
  let reg_diffs =
    Array.to_list seg.R.end_regs
    |> List.mapi (fun reg expected ->
           let got = if reg < Array.length got_regs then got_regs.(reg) else 0 in
           if got <> expected then Some { reg; expected; got } else None)
    |> List.filter_map Fun.id
  in
  (* Extra-dirty check: every page the re-execution dirtied must be in
     the recorded dirty set (recorded sets are supersets of the
     store-dirtied pages under every backend), else the replay wrote
     somewhere the main did not. *)
  let extra_dirty () =
    let recorded = Hashtbl.create (Array.length seg.R.pages) in
    Array.iter (fun (vpn, _) -> Hashtbl.replace recorded vpn ()) seg.R.pages;
    Array.find_opt
      (fun vpn -> not (Hashtbl.mem recorded vpn))
      (Mem.Page_table.soft_dirty_pages pt)
  in
  if reg_diffs <> [] then
    let n = List.length reg_diffs in
    diverge st ~reg_diffs
      (Printf.sprintf "register state mismatch (%d register%s)" n
         (if n = 1 then "" else "s"))
  else
    match Array.find_map (page_mismatch pt) seg.R.pages with
    | Some (reason, page_diff) -> diverge st ?page_diff reason
    | None -> (
      match extra_dirty () with
      | Some vpn ->
        diverge st
          (Printf.sprintf
             "page %d dirtied by replay but absent from the recorded dirty set" vpn)
      | None ->
        if st.idx = Array.length st.segs - 1 then finish_run st
        else begin
          st.idx <- st.idx + 1;
          arm_segment st;
          E.resume st.eng st.pid
        end)

(* ------------------------------------------------------------------ *)
(* Event handling                                                       *)

(* A boundary syscall from the preamble: re-establish the recorded
   file-backed mapping at its recorded address. The replayer has no
   filesystem state, so the kernel maps fresh zero pages and the
   content travels in the record's [in_data] snapshot. *)
let replay_preamble st (r : R.sys_record) rest call =
  if r.R.call <> call then
    fail st
      (Detection.Detected
         (Detection.Syscall_mismatch
            {
              expected = Sim_os.Syscall.name r.R.call;
              got = Sim_os.Syscall.name call;
            }))
  else begin
    st.preamble <- rest;
    match Replay_step.reexecute ~pin_any_mmap:true st.eng st.pid r call with
    | Replay_step.Failed o -> fail st o
    | Replay_step.Continue | Replay_step.Wait_for_log | Replay_step.Reached_end ->
      (match r.R.in_data with
      | Some data when r.R.result >= 0 -> inject_bytes st ~addr:r.R.result data
      | Some _ | None -> ());
      (* The preamble is consumed: open the segment's dirty window, as
         the live start_segment did right after the boundary call. *)
      if rest = [] then Mem.Page_table.clear_soft_dirty (page_table st);
      E.resume st.eng st.pid
  end

let handle_event st ev =
  if st.outcome <> None then () (* stale event after the verdict *)
  else
    match ((ev : E.event), st.preamble) with
    | E.Syscall_entry call, r :: rest -> replay_preamble st r rest call
    | _ -> (
      match
        Replay_step.step st.eng st.pid st.cursor ~log_complete:true st.targets ev
      with
      | Replay_step.Continue -> E.resume st.eng st.pid
      | Replay_step.Wait_for_log -> () (* a complete log never waits *)
      | Replay_step.Reached_end -> end_of_segment st
      | Replay_step.Failed o -> fail st o)

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)

let replay ~(manifest : R.manifest) ~(segments : R.segment list) =
  let ( let* ) = Result.bind in
  let header = manifest.R.header and config = manifest.R.config in
  let* () =
    if List.map (fun (s : R.segment) -> s.R.id) segments = manifest.R.segments
    then Ok ()
    else Error "segment list does not match the manifest's replay order"
  in
  let* platform = Platform.of_name header.R.platform in
  let* () =
    if platform.Platform.page_size = header.R.page_size then Ok ()
    else
      Error
        (Printf.sprintf "page size mismatch: manifest %d, platform %s has %d"
           header.R.page_size platform.Platform.name platform.Platform.page_size)
  in
  let* program = Seglog_io.program_of_record manifest.R.program in
  let* plan =
    match config.R.fault with
    | None -> Ok None
    | Some spec -> (
      match Seglog_io.plan_of_spec spec with
      | Ok p -> Ok (Some p)
      | Error e -> Error ("bad recorded fault plan: " ^ e))
  in
  if segments = [] then
    Ok
      (Verified
         {
           segments = 0;
           final_hash = manifest.R.final_state_hash;
           final_hash_matches = None;
         })
  else begin
    (* Same seed, and the spawn below is the first consumer of the
       engine's entropy stream in the live run too — the initial
       address-space layout reproduces exactly; every later mmap is
       pinned from the record. *)
    let eng = E.create ~platform ~seed:config.R.seed () in
    let st =
      {
        eng;
        pid = -1;
        segs = Array.of_list segments;
        plan;
        timeout_scale = config.R.timeout_scale;
        final_hash = manifest.R.final_state_hash;
        idx = 0;
        cursor = Rr_log.cursor (Rr_log.create ());
        preamble = [];
        targets = None;
        seg_start_branches = 0;
        outcome = None;
      }
    in
    let tracer _eng _pid ev = handle_event st ev in
    let pid = E.spawn eng ~tracer ~program ~core:0 () in
    st.pid <- pid;
    E.suspend eng pid;
    arm_segment st;
    E.resume eng pid;
    E.run ~max_ns:max_sim_ns eng;
    match st.outcome with
    | Some v -> Ok v
    | None -> Error "offline replay stalled before reaching a verdict"
  end

let divergence_report d =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "divergence in segment %d at %s\n" d.segment
       (Exec_point.to_string d.point));
  Buffer.add_string b (Printf.sprintf "  reason: %s\n" d.reason);
  List.iter
    (fun { reg; expected; got } ->
      Buffer.add_string b
        (Printf.sprintf "  register r%d: recorded %d, got %d\n" reg expected got))
    d.reg_diffs;
  (match d.page_diff with
  | Some { vpn; offset; expected; got } ->
    Buffer.add_string b
      (Printf.sprintf
         "  first differing page: vpn %d, byte offset %d: recorded 0x%02x, got 0x%02x\n"
         vpn offset expected got)
  | None -> ());
  Buffer.contents b
