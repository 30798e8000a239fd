(* End-to-end benchmark of the Parallaft simulator on two clocks.

   Every workload is driven through public entry points only
   (Runtime.run_protected / run_baseline, Fleet.run, Seglog.Reader /
   Writer, Offline.replay). Host cost is attributed to layers from
   outside: probes time calls into each layer's public functions on
   inputs shaped like the workload, and the run's own Stats counters say
   how many times the workload did that work. README.md beside this file
   documents the workloads and the layer -> metric -> workload map. *)

module P = Parallaft

(* ------------------------------------------------------------------ *)
(* Clocks and benchmark-side spans                                      *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The benchmark's own spans: Begin/End pairs on the Run track of an
   Obs trace, stamped with host nanoseconds since the run began and
   tagged with their pass (0 outside passes). They are kept in memory and
   exported once, when the run ends. *)
module Spans = struct
  let trace = ref (Obs.Trace.create ~capacity:1 ())
  let t0 = ref 0
  let pass = ref 0

  let reset ~enabled =
    trace := Obs.Trace.create ~capacity:(if enabled then 65536 else 1) ();
    Obs.Trace.set_enabled !trace enabled;
    t0 := now_ns ();
    pass := 0

  let emit phase name =
    Obs.Trace.emit !trace ~ts_ns:(now_ns () - !t0) ~track:Obs.Trace.Run ~phase
      ~args:[ ("pass", Obs.Trace.Int !pass) ]
      name

  let time name f =
    if not (Obs.Trace.enabled !trace) then f ()
    else begin
      emit Obs.Trace.Begin name;
      Fun.protect ~finally:(fun () -> emit Obs.Trace.End name) f
    end
end

(* Wall time of [f ()] in seconds, recorded as a span [name]. *)
let timed name f =
  Spans.time name (fun () ->
      let t0 = now_ns () in
      let v = f () in
      (v, seconds_since t0))

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

type clock = Host | Sim | Count

let clock_name = function Host -> "host" | Sim -> "sim" | Count -> "count"

type metric = { name : string; value : float; unit_ : string; clock : clock }

let m name unit_ clock value = { name; value; unit_; clock }

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let pct num den = if den = 0. then 0. else 100. *. num /. den
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

type kind =
  | Protect  (** run_protected of every program, inline backend *)
  | Seglog_roundtrip  (** record -> Reader -> Offline.replay *)
  | Fleet_recovery  (** 4-tenant Fleet.run, tenant 0 faulted *)

type workload = {
  name : string;
  kind : kind;
  platform : Platform.t;
  profiles : (string * int list option) list;
      (** SPEC stand-in profile and the inputs used ([None]: all) *)
}

let workloads =
  [
    {
      name = "protect-membound";
      kind = Protect;
      platform = Platform.apple_m2;
      profiles = [ ("429.mcf", None); ("470.lbm", None) ];
    };
    {
      name = "protect-compute";
      kind = Protect;
      platform = Platform.apple_m2;
      profiles = [ ("444.namd", None); ("456.hmmer", None); ("458.sjeng", None) ];
    };
    {
      name = "seglog-roundtrip";
      kind = Seglog_roundtrip;
      platform = Platform.apple_m2;
      profiles = [ ("433.milc", None); ("403.gcc", Some [ 0 ]) ];
    };
    {
      name = "fleet-recovery";
      kind = Fleet_recovery;
      platform = Platform.intel_i7;
      profiles = [ ("473.astar", None) ];
    };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads
let fleet_tenants = 4

(* Independent 64-bit seeds derived from the benchmark seed: program
   data seeds use indices < 1000, engine seeds 1000 + run index. *)
let derived ~seed index = Util.Rng.next_int64 (Util.Rng.stream ~root:seed ~index)
let engine_seed ~seed i = derived ~seed (1000 + i)

(* [Workloads.Spec.programs] with the data seed taken from the benchmark
   seed instead of the profile name. Each program comes with whether its
   stdout depends only on its own data: gettime, rdtsc and mmap results
   are folded into the checksum it prints, so only a program that makes
   none of these calls must print the same under protection as bare. *)
let generate_programs ~seed ~scale (w : workload) =
  let page_size = w.platform.Platform.page_size in
  let factor = max 1 (16384 / page_size) in
  let scale_pattern = function
    | Workloads.Codegen.Chase c ->
      Workloads.Codegen.Chase
        { c with pages = c.pages * factor; hot_pages = c.hot_pages * factor }
    | Workloads.Codegen.Stream s ->
      Workloads.Codegen.Stream { s with pages = s.pages * factor }
    | Workloads.Codegen.Blocked { pages } ->
      Workloads.Codegen.Blocked { pages = pages * factor }
  in
  let index = ref 0 in
  List.concat_map
    (fun (pname, inputs) ->
      let b =
        match Workloads.Spec.find pname with
        | Some b -> b
        | None -> failwith ("perfbench: no profile " ^ pname)
      in
      let inputs =
        match inputs with
        | Some l -> l
        | None -> List.init b.Workloads.Spec.inputs Fun.id
      in
      List.map
        (fun input ->
          let data_seed = derived ~seed !index in
          incr index;
          let spec = b.Workloads.Spec.spec in
          let fixed_output =
            spec.Workloads.Codegen.gettime_every <= 0
            && spec.Workloads.Codegen.rdtsc_every <= 0
            && not spec.Workloads.Codegen.mmap_churn
          in
          ( Workloads.Codegen.generate
            ~name:(Printf.sprintf "%s/in%d" pname input)
            ~seed:data_seed ~page_size
            {
              spec with
              Workloads.Codegen.outer_iters =
                max 1
                  (int_of_float
                     (float_of_int b.Workloads.Spec.base_outer *. scale));
              pattern = scale_pattern spec.Workloads.Codegen.pattern;
            },
            fixed_output ))
        inputs)
    w.profiles

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)

type env = {
  w : workload;
  seed : int64;
  programs : Isa.Program.t list;  (** fleet: one per tenant *)
  fixed_output : bool list;  (** per program, see [generate_programs] *)
  config : P.Config.t;
  log_dirs : string list;  (** seglog: one record directory per program *)
}

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fleet_fault =
  (* A transient flip carried by a main-side store: the page is dirty,
     so the segment's state comparison catches it. *)
  {
    Fault.segment = 1;
    delay_instructions = 200;
    target = Fault.Main_memory_page { page_index = 1; bit = 17 };
    repeat = false;
  }

let setup ~seed ~scale ~tmp_dir (w : workload) =
  let programs, fixed_output = List.split (generate_programs ~seed ~scale w) in
  let base = P.Config.parallaft ~platform:w.platform () in
  match w.kind with
  | Protect -> { w; seed; programs; fixed_output; config = base; log_dirs = [] }
  | Seglog_roundtrip ->
    remove_tree tmp_dir;
    Sys.mkdir tmp_dir 0o755;
    let log_dirs =
      List.mapi (fun i _ -> Filename.concat tmp_dir (Printf.sprintf "log%d" i)) programs
    in
    { w; seed; programs; fixed_output; config = base; log_dirs }
  | Fleet_recovery ->
    let programs =
      List.init fleet_tenants (fun i -> List.nth programs (i mod List.length programs))
    in
    {
      w;
      seed;
      programs;
      fixed_output = List.map (fun _ -> false) programs;
      config = { base with P.Config.recovery = true; recheck_on_mismatch = true };
      log_dirs = [];
    }

(* ------------------------------------------------------------------ *)
(* Reference: unprotected runs of the same programs                    *)

type reference = {
  baselines : P.Runtime.baseline list;
  baseline_host_s : float;
  baseline_insns : int;  (** instructions the baselines retired *)
  expected_output : string option list;
      (** per program, the bare run's stdout where protection must
          reproduce it *)
}

let reference env =
  let runs =
    List.mapi
      (fun i program ->
        (* The CPU object outlives the process, so its retired-instruction
           counter can be read after the run. *)
        let cpu = ref None in
        let before_run eng pid = cpu := Some (Sim_os.Engine.cpu eng pid) in
        let b, s =
          timed "baseline" (fun () ->
              P.Runtime.run_baseline ~seed:(engine_seed ~seed:env.seed i)
                ~before_run ~platform:env.w.platform ~program ())
        in
        (b, s, Option.fold ~none:0 ~some:Machine.Cpu.instructions !cpu))
      env.programs
  in
  {
    baselines = List.map (fun (b, _, _) -> b) runs;
    baseline_host_s = sum (fun (_, s, _) -> s) runs;
    baseline_insns = isum (fun (_, _, n) -> n) runs;
    expected_output =
      List.map2
        (fun (b, _, _) fixed -> if fixed then Some b.P.Runtime.output else None)
        runs env.fixed_output;
  }

(* ------------------------------------------------------------------ *)
(* One pass                                                             *)

type seglog_leg = { record_s : float; offline_s : float; offline_segments : int }

type pass = {
  host_s : float;
  alloc_words : float;
  gc : Gc.stat * Gc.stat;  (** quick_stat before and after *)
  reports : P.Runtime.report list;
      (** protected runs (the record leg on seglog-roundtrip) *)
  fleet : Fleet.report option;
  seglog : seglog_leg option;
  sink : Obs.Sink.t option;  (** the library sink of a traced pass *)
  signature : string;  (** simulated outcome; identical on every pass *)
  state_digest : int64;  (** digest of every final state hash *)
  failures : string list;
}

let hash_opt = function Some h -> Printf.sprintf "%016Lx" h | None -> "none"

let check_protected ~label ~expected_output (r : P.Runtime.report) =
  let st = r.P.Runtime.stats in
  List.filter_map
    (fun (ok, what) -> if ok then None else Some (label ^ ": " ^ what))
    [
      (r.P.Runtime.exit_status = Some 0, "exit status is not 0");
      (not r.P.Runtime.aborted, "run aborted");
      (r.P.Runtime.detections = [], "unexpected detection");
      ( st.P.Stats.segments_compared = st.P.Stats.segments_total,
        Printf.sprintf "compared %d of %d segments" st.P.Stats.segments_compared
          st.P.Stats.segments_total );
      (P.Stats.final_state_hash st <> None, "no final state hash");
      ( Option.fold ~none:true ~some:(String.equal r.P.Runtime.output) expected_output,
        "output differs from the unprotected run" );
    ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic) |> Bytes.of_string)

let read_log_exn dir =
  let ( let* ) = Result.bind in
  let err e = Error (Seglog.Codec.error_to_string e) in
  let* manifest =
    match Seglog.Reader.manifest (read_file (Filename.concat dir "manifest.plog")) with
    | Ok mf -> Ok mf
    | Error e -> err e
  in
  let reader =
    Seglog.Reader.create
      ~config_digest:manifest.Seglog.Record.header.Seglog.Record.config_digest
  in
  let files =
    List.map
      (fun id ->
        let path = Filename.concat dir (P.Seglog_io.segment_file_name id) in
        (path, read_file path))
      manifest.Seglog.Record.segments
  in
  let* segments =
    List.fold_left
      (fun acc (_, bytes) ->
        let* acc = acc in
        match Seglog.Reader.segment reader bytes with
        | Ok s -> Ok (s :: acc)
        | Error e -> err e)
      (Ok []) files
  in
  Ok (manifest, files, List.rev segments)

(* Read one recorded run back: manifest, then every segment in order. *)
let read_log dir =
  try read_log_exn dir with Sys_error e -> Error e

let run_pass ~traced ?expect_state env (refs : reference) =
  let sink =
    if traced then begin
      let s = Obs.Sink.create () in
      Obs.Profile.set_enabled s.Obs.Sink.profile true;
      Some s
    end
    else None
  in
  let config =
    if traced then { env.config with P.Config.obs = sink; cpu_stats = true }
    else env.config
  in
  let platform = env.w.platform in
  let protect i ?record_log program =
    Spans.time "run_protected" (fun () ->
        P.Runtime.run_protected ~seed:(engine_seed ~seed:env.seed i) ~platform
          ~config:{ config with P.Config.record_log } ~program ())
  in
  List.iter remove_tree env.log_dirs;
  (* Every pass starts from the same compacted heap. *)
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let a0 = allocated_words () in
  let t0 = now_ns () in
  let reports, fleet, seglog =
    match env.w.kind with
    | Protect -> (List.mapi (fun i p -> protect i p) env.programs, None, None)
    | Fleet_recovery ->
      let report =
        Spans.time "fleet_run" (fun () ->
            Fleet.run ~seed:(engine_seed ~seed:env.seed 0) ~max_tenants:fleet_tenants
              ~configure:(fun tid cfg ->
                if tid = 0 then { cfg with P.Config.fault_plan = Some fleet_fault }
                else cfg)
              ~platform ~config ~programs:env.programs ())
      in
      ([], Some report, None)
    | Seglog_roundtrip ->
      let reports, record_s =
        timed "record" (fun () ->
            List.mapi
              (fun i (p, dir) -> protect i ~record_log:dir p)
              (List.combine env.programs env.log_dirs))
      in
      let verdicts, offline_s =
        timed "offline_replay" (fun () ->
            List.map
              (fun dir ->
                match Spans.time "read_log" (fun () -> read_log dir) with
                | Ok (manifest, _, segments) -> P.Offline.replay ~manifest ~segments
                | Error e -> Error ("reading the log: " ^ e))
              env.log_dirs)
      in
      let offline_segments =
        isum
          (function
            | Ok (P.Offline.Verified { segments; _ }) -> segments | _ -> 0)
          verdicts
      in
      ( reports,
        None,
        Some
          ({ record_s; offline_s; offline_segments }, verdicts) )
  in
  let host_s = seconds_since t0 in
  let alloc_words = allocated_words () -. a0 in
  let gc1 = Gc.quick_stat () in
  (* Correctness, outside the timed region. *)
  let hashes, walls, failures =
    match (env.w.kind, fleet, seglog) with
    | Fleet_recovery, Some fr, _ ->
      let tenant_failures =
        List.concat_map
          (fun (t : Fleet.tenant_report) ->
            let label = Printf.sprintf "tenant %d" t.Fleet.tid in
            let dets, rollbacks =
              match t.Fleet.stats with
              | Some st -> (List.length st.P.Stats.detections, st.P.Stats.recoveries)
              | None -> (-1, -1)
            in
            let want = if t.Fleet.tid = 0 then 1 else 0 in
            List.filter_map
              (fun (ok, what) -> if ok then None else Some (label ^ ": " ^ what))
              [
                (t.Fleet.outcome = Fleet.Completed, "not completed");
                (t.Fleet.exit_status = Some 0, "exit status is not 0");
                (dets = want, Printf.sprintf "%d detections, want %d" dets want);
                (rollbacks = want, Printf.sprintf "%d rollbacks, want %d" rollbacks want);
                (t.Fleet.final_state_hash <> None, "no final state hash");
              ])
          fr.Fleet.tenants
      in
      (* Tenants that run the same program end in the same state, so the
         recovered tenant 0 must match its fault-free twin. *)
      let programs = Array.of_list env.programs in
      let hashes =
        Array.of_list
          (List.map (fun (t : Fleet.tenant_report) -> t.Fleet.final_state_hash)
             fr.Fleet.tenants)
      in
      let twin_failures =
        List.concat
          (List.init (Array.length hashes) (fun i ->
               let rec first j = if programs.(j) == programs.(i) then j else first (j + 1) in
               let j = first 0 in
               if hashes.(i) = hashes.(j) then []
               else
                 [
                   Printf.sprintf
                     "tenant %d: final state differs from tenant %d, which runs the same \
                      program"
                     i j;
                 ]))
      in
      ( List.map
          (fun (t : Fleet.tenant_report) -> t.Fleet.final_state_hash)
          fr.Fleet.tenants,
        [ fr.Fleet.wall_ns ],
        tenant_failures @ twin_failures )
    | _, _, leg ->
      let live =
        List.concat
          (List.map2
             (fun ((p : Isa.Program.t), expected_output) r ->
               check_protected ~label:p.Isa.Program.name ~expected_output r)
             (List.combine env.programs refs.expected_output)
             reports)
      in
      let offline =
        match leg with
        | None -> []
        | Some (_, verdicts) ->
          List.concat
            (List.mapi
               (fun i (v, (r : P.Runtime.report)) ->
                 let label = Printf.sprintf "offline %d" i in
                 let recorded =
                   match r.P.Runtime.stats.P.Stats.seglog with
                   | Some s -> s.P.Stats.seglog_segments
                   | None -> -1
                 in
                 match v with
                 | Ok (P.Offline.Verified { segments; final_hash_matches; _ }) ->
                   List.filter_map
                     (fun (ok, what) -> if ok then None else Some (label ^ ": " ^ what))
                     [
                       ( segments = recorded,
                         Printf.sprintf "verified %d of %d recorded segments" segments
                           recorded );
                       (final_hash_matches = Some true, "final hash not confirmed");
                     ]
                 | Ok (P.Offline.Diverged d) ->
                   [ label ^ ": diverged: " ^ d.P.Offline.reason ]
                 | Error e -> [ label ^ ": " ^ e ])
               (List.combine verdicts reports))
      in
      ( List.map
          (fun (r : P.Runtime.report) -> P.Stats.final_state_hash r.P.Runtime.stats)
          reports,
        List.map
          (fun (r : P.Runtime.report) -> int_of_float r.P.Runtime.stats.P.Stats.all_wall_ns)
          reports,
        live @ offline )
  in
  let signature =
    String.concat " "
      (List.map hash_opt hashes @ List.map string_of_int walls)
  in
  let state_digest =
    Ftr_hash.Xxh64.hash (Bytes.of_string (String.concat "," (List.map hash_opt hashes)))
  in
  let failures =
    match expect_state with
    | Some want when want <> state_digest ->
      Printf.sprintf "state digest %016Lx, expected %016Lx" state_digest want :: failures
    | Some _ | None -> failures
  in
  {
    host_s;
    alloc_words;
    gc = (gc0, gc1);
    reports;
    fleet;
    seglog = Option.map fst seglog;
    sink;
    signature;
    state_digest;
    failures;
  }

(* ------------------------------------------------------------------ *)
(* Layer probes: each times a layer's public function on an input shaped
   like the workload and reports the median of repeated batches.        *)

let probe name ~batch f =
  Spans.time name (fun () ->
      let samples =
        List.init 7 (fun _ ->
            let a0 = allocated_words () in
            let t0 = now_ns () in
            for _ = 1 to batch do
              f ()
            done;
            let ns = float_of_int (now_ns () - t0) /. float_of_int batch in
            (ns, (allocated_words () -. a0) /. float_of_int batch))
      in
      (median (List.map fst samples), median (List.map snd samples)))

let data_pages (p : Isa.Program.t) ~page_size =
  isum
    (fun (d : Isa.Program.data_segment) ->
      (Bytes.length d.Isa.Program.bytes + page_size - 1) / page_size)
    p.Isa.Program.data

(* An address space with [pages] private, written pages. *)
let populated ~page_size ~pages =
  let aspace = Mem.Address_space.create (Mem.Frame.allocator ~page_size) in
  let base = 0x1000_0000 in
  Mem.Address_space.map_range aspace ~addr:base ~len:(pages * page_size)
    Mem.Page_table.Read_write;
  for i = 0 to pages - 1 do
    Mem.Address_space.store64 aspace (base + (i * page_size)) (i + 1)
  done;
  (aspace, base)

type probes = {
  fork_us : float;
  cow_ns_per_page : float;
  cow_words_per_page : float;
  collect_us : float;
  hash_ns_per_page : float;
  hash_words_per_page : float;
}

let run_probes env ~dirty_per_segment =
  let page_size = env.w.platform.Platform.page_size in
  let pages =
    max 1
      (isum (data_pages ~page_size) env.programs / max 1 (List.length env.programs))
  in
  let aspace, base = populated ~page_size ~pages in
  let free a = Mem.Page_table.free_all (Mem.Address_space.page_table a) in
  let fork_ns, _ =
    probe "probe.fork" ~batch:20 (fun () -> free (Mem.Address_space.fork aspace))
  in
  (* First store into every page of a fresh fork: one COW copy each. *)
  let cow =
    Spans.time "probe.cow" (fun () ->
        List.init 7 (fun _ ->
            let child = Mem.Address_space.fork aspace in
            let a0 = allocated_words () in
            let t0 = now_ns () in
            for i = 0 to pages - 1 do
              Mem.Address_space.store64 child (base + (i * page_size)) (-i)
            done;
            let ns = float_of_int (now_ns () - t0) /. float_of_int pages in
            let words = (allocated_words () -. a0) /. float_of_int pages in
            free child;
            (ns, words)))
  in
  (* Dirty scan of a page table of the workload's size with the
     workload's average dirty-page count per segment. *)
  let backend = env.config.P.Config.dirty_backend in
  let child = Mem.Address_space.fork aspace in
  let pt = Mem.Address_space.page_table child in
  P.Dirty_tracker.clear backend pt;
  for i = 0 to min pages dirty_per_segment - 1 do
    Mem.Address_space.store64 child (base + (i * page_size)) i
  done;
  let collect_ns, _ =
    probe "probe.dirty_collect" ~batch:50 (fun () ->
        ignore (P.Dirty_tracker.collect backend pt))
  in
  free child;
  let page = Bytes.init page_size (fun i -> Char.chr ((i * 131) land 255)) in
  let hash_ns, hash_words =
    probe "probe.hash" ~batch:50 (fun () -> ignore (Ftr_hash.Xxh64.hash page))
  in
  free aspace;
  {
    fork_us = fork_ns /. 1e3;
    cow_ns_per_page = median (List.map fst cow);
    cow_words_per_page = median (List.map snd cow);
    collect_us = collect_ns /. 1e3;
    hash_ns_per_page = hash_ns;
    hash_words_per_page = hash_words;
  }

(* Decode and re-encode the logs the last pass recorded; the re-encoded
   files must be byte-identical to the recorded ones. Returns
   [(decode_ms, encode_ms, identical)]. *)
let seglog_codec_probe env =
  let logs = List.filter_map (fun d -> Result.to_option (read_log d)) env.log_dirs in
  let decode () =
    List.iter
      (fun ((mf : Seglog.Record.manifest), files, _) ->
        let r =
          Seglog.Reader.create
            ~config_digest:mf.Seglog.Record.header.Seglog.Record.config_digest
        in
        List.iter (fun (_, b) -> ignore (Seglog.Reader.segment r b)) files)
      logs
  in
  let encode () =
    List.map
      (fun ((mf : Seglog.Record.manifest), _, segs) ->
        let w = Seglog.Writer.create ~header:mf.Seglog.Record.header in
        List.map (Seglog.Writer.segment w) segs)
      logs
  in
  let (), decode_s = timed "probe.seglog_decode" decode in
  let encoded, encode_s = timed "probe.seglog_encode" encode in
  let identical =
    List.length logs = List.length env.log_dirs
    && List.for_all2
         (fun (_, files, _) enc ->
           List.for_all2 (fun (_, b) e -> Bytes.equal b e) files enc)
         logs encoded
  in
  (decode_s *. 1e3, encode_s *. 1e3, identical)

(* ------------------------------------------------------------------ *)
(* A run: set-up, reference, passes until the time budget is spent      *)


(* All per-protected-run stats of a pass: the runs, or the fleet's tenants. *)
let pass_stats p =
  match p.fleet with
  | Some fr ->
    List.filter_map (fun (t : Fleet.tenant_report) -> t.Fleet.stats) fr.Fleet.tenants
  | None -> List.map (fun (r : P.Runtime.report) -> r.P.Runtime.stats) p.reports

let end_to_end (refs : reference) ~setup_s ~passes =
  let first = List.hd passes in
  let sim_overhead_pct, sim_seg_per_s =
    match first.fleet with
    | Some fr ->
      (* The tenants' mains run side by side on their own big cores, so
         the unprotected reference is the longest single baseline. *)
      let base =
        List.fold_left (fun acc (b : P.Runtime.baseline) -> max acc b.P.Runtime.wall_ns) 0
          refs.baselines
      in
      ( Util.Stats.percentage_overhead ~baseline:(float_of_int base)
          ~measured:(float_of_int fr.Fleet.wall_ns),
        fr.Fleet.throughput_segments_per_s )
    | None ->
      let stats = pass_stats first in
      let prot = sum (fun s -> s.P.Stats.all_wall_ns) stats in
      let base =
        float_of_int
          (isum (fun (b : P.Runtime.baseline) -> b.P.Runtime.wall_ns) refs.baselines)
      in
      let segs = isum (fun s -> s.P.Stats.segments_compared) stats in
      ( Util.Stats.percentage_overhead ~baseline:base ~measured:prot,
        float_of_int segs /. (prot /. 1e9) )
  in
  [
    m "host_s" "s" Host (median (List.map (fun p -> p.host_s) passes));
    m "setup_s" "s" Host setup_s;
    m "alloc_mwords" "Mwords" Count
      (median (List.map (fun p -> p.alloc_words /. 1e6) passes));
    m "peak_heap_mb" "MB" Count
      (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
    m "sim_overhead_pct" "%" Sim sim_overhead_pct;
    m "sim_seg_per_s" "1/s" Sim sim_seg_per_s;
    m "failed_pct" "%" Count
      (pct
         (float_of_int (List.length (List.filter (fun p -> p.failures <> []) passes)))
         (float_of_int (List.length passes)));
  ]

let profile_phases =
  [
    "checker_launch"; "compare"; "dirty_scan"; "drain"; "main_held"; "record";
    "record_io"; "replay"; "rollback"; "scheduler_idle"; "seglog_write";
  ]

let per_layer env (refs : reference) ~untraced ~traced ~codec =
  let u = List.hd untraced in
  let t = List.hd traced in
  let stats = pass_stats u in
  let tstats = pass_stats t in
  let si f = float_of_int (isum f stats) in
  let host_s = median (List.map (fun p -> p.host_s) untraced) in
  let traced_host_s = median (List.map (fun p -> p.host_s) traced) in
  let segments = si (fun s -> s.P.Stats.segments_total) in
  let dirty_pages = si (fun s -> s.P.Stats.dirty_pages_total) in
  let probes =
    run_probes env
      ~dirty_per_segment:(int_of_float (dirty_pages /. max 1. segments))
  in
  let page_size = float_of_int env.w.platform.Platform.page_size in
  let checkpoints = si (fun s -> s.P.Stats.checkpoint_count) in
  let cow_copies =
    match u.fleet with
    | Some _ -> 0.  (* Fleet.report does not expose the frame allocator *)
    | None ->
      float_of_int (isum (fun (r : P.Runtime.report) -> r.P.Runtime.cow_copies) u.reports)
  in
  let bytes_hashed = si (fun s -> s.P.Stats.bytes_hashed) in
  let hits = si (fun s -> s.P.Stats.page_hash_hits) in
  let digests = hits +. si (fun s -> s.P.Stats.page_hash_misses) in
  let skipped = si (fun s -> s.P.Stats.pages_skipped_identical) in
  let mem_est =
    (checkpoints *. probes.fork_us /. 1e6) +. (cow_copies *. probes.cow_ns_per_page /. 1e9)
  in
  let dirty_est = 2. *. segments *. probes.collect_us /. 1e6 in
  let cmp_est = bytes_hashed /. page_size *. probes.hash_ns_per_page /. 1e9 in
  let bc_hits, bc_misses =
    List.fold_left
      (fun (h, mi) s ->
        match s.P.Stats.block_cache with
        | Some (hh, mm, _) -> (h + hh, mi + mm)
        | None -> (h, mi))
      (0, 0) tstats
  in
  let phases =
    match t.sink with
    | Some s -> Obs.Profile.phases s.Obs.Sink.profile
    | None -> []
  in
  let phase name =
    match List.assoc_opt name phases with
    | Some ps -> float_of_int ps.Obs.Profile.self_ns /. 1e3
    | None -> 0.
  in
  let logs = List.filter_map (fun s -> s.P.Stats.seglog) stats in
  let log_sum f = float_of_int (isum f logs) in
  let stored = log_sum (fun l -> l.P.Stats.seglog_stored_page_bytes) in
  let leg f = match u.seglog with Some l -> f l | None -> 0. in
  let codec_ms f = match codec with Some c -> f c | None -> 0. in
  let fleet_of f = match u.fleet with Some fr -> float_of_int (f fr) | None -> 0. in
  let gc_med f =
    median
      (List.map
         (fun p ->
           let g0, g1 = p.gc in
           f g1 -. f g0)
         untraced)
  in
  (* Main and checker each execute the program once. *)
  let residual =
    host_s -. (2. *. refs.baseline_host_s) -. mem_est -. dirty_est -. cmp_est
  in
  [
    m "interp.host_s" "s" Host refs.baseline_host_s;
    m "interp.minsn_per_s" "Minsn/s" Host
      (float_of_int refs.baseline_insns /. 1e6 /. refs.baseline_host_s);
    m "interp.block_cache_hit_pct" "%" Count
      (pct (float_of_int bc_hits) (float_of_int (bc_hits + bc_misses)));
    m "mem.checkpoints" "count" Count checkpoints;
    m "mem.cow_copies" "count" Count cow_copies;
    m "mem.fork_us" "us" Host probes.fork_us;
    m "mem.cow_ns_per_page" "ns" Host probes.cow_ns_per_page;
    m "mem.cow_words_per_page" "words" Count probes.cow_words_per_page;
    m "mem.est_host_s" "s" Host mem_est;
    m "dirty.pages" "count" Count dirty_pages;
    m "dirty.collect_us" "us" Host probes.collect_us;
    m "dirty.est_host_s" "s" Host dirty_est;
    m "cmp.bytes_hashed" "bytes" Count bytes_hashed;
    m "cmp.page_digests" "count" Count digests;
    m "cmp.digest_hit_pct" "%" Count (pct hits digests);
    m "cmp.identity_skip_pct" "%" Count (pct skipped (skipped +. (digests /. 2.)));
    m "hash.ns_per_page" "ns" Host probes.hash_ns_per_page;
    m "hash.words_per_page" "words" Count probes.hash_words_per_page;
    m "cmp.est_host_s" "s" Host cmp_est;
    m "seglog.record_host_s" "s" Host (leg (fun l -> l.record_s));
    m "seglog.encode_ms" "ms" Host (codec_ms (fun (_, e, _) -> e));
    m "seglog.decode_ms" "ms" Host (codec_ms (fun (d, _, _) -> d));
    m "seglog.compression_ratio" "x" Count
      (if stored = 0. then 0.
       else log_sum (fun l -> l.P.Stats.seglog_raw_page_bytes) /. stored);
    m "seglog.bytes_written" "bytes" Count (log_sum (fun l -> l.P.Stats.seglog_bytes));
    m "offline.host_s" "s" Host (leg (fun l -> l.offline_s));
    m "offline.segments" "count" Count (leg (fun l -> float_of_int l.offline_segments));
    m "engine.segments" "count" Count segments;
    m "engine.migrations" "count" Count (si (fun s -> s.P.Stats.migrations));
    m "backend.dispatched" "count" Count
      (si (fun s -> s.P.Stats.backend.P.Stats.b_dispatched));
    m "backend.max_lag" "count" Count
      (float_of_int
         (List.fold_left
            (fun acc s -> max acc s.P.Stats.backend.P.Stats.b_max_lag)
            0 stats));
    m "protect.overhead_x" "x" Host (host_s /. refs.baseline_host_s);
    m "protect.residual_s" "s" Host residual;
  ]
  @ List.map
      (fun ph -> m (Printf.sprintf "profile.%s_sim_us" ph) "us" Sim (phase ph))
      profile_phases
  @ [
      m "fleet.steals" "count" Count (fleet_of (fun fr -> fr.Fleet.steals));
      m "fleet.migrations" "count" Count (fleet_of (fun fr -> fr.Fleet.migrations));
      m "fleet.segments_verified" "count" Count
        (fleet_of (fun fr -> fr.Fleet.segments_verified));
      m "fleet.host_ms_per_segment" "ms" Host
        (match u.fleet with
        | Some fr -> host_s *. 1e3 /. float_of_int (max 1 fr.Fleet.segments_verified)
        | None -> 0.);
      m "recovery.rollbacks" "count" Count (si (fun s -> s.P.Stats.recoveries));
      m "recovery.rechecks" "count" Count (si (fun s -> s.P.Stats.rechecks));
      m "recovery.detections" "count" Count
        (si (fun s -> List.length s.P.Stats.detections));
      m "recovery.watchdog_kills" "count" Count (si (fun s -> s.P.Stats.watchdog_kills));
      m "obs.traced_overhead_pct" "%" Host (pct (traced_host_s -. host_s) host_s);
      m "gc.minor_collections" "count" Count
        (gc_med (fun g -> float_of_int g.Gc.minor_collections));
      m "gc.major_collections" "count" Count
        (gc_med (fun g -> float_of_int g.Gc.major_collections));
      m "gc.promoted_mwords" "Mwords" Count (gc_med (fun g -> g.Gc.promoted_words /. 1e6));
      m "gc.major_mwords" "Mwords" Count (gc_med (fun g -> g.Gc.major_words /. 1e6));
    ]

type result = {
  workload : string;
  seed : int64;
  traced : bool;
  attempted : int;
  failed : int;
  failures : string list;  (** distinct failure messages *)
  state_digest : int64;
  metrics : metric list;
  passes : pass list;
  spans : Obs.Trace.t;  (** the benchmark's own spans; empty untraced *)
}

let setup_reps = 50

let run ?(scale = 1.0) ?(min_passes = 1) ?expect_state ~tmp_dir ~seed ~seconds ~traced
    (w : workload) =
  Spans.reset ~enabled:traced;
  (* Set-up takes milliseconds, so it is repeated and the median kept. A
     fixed count keeps the heap history, and so every later count,
     identical from run to run. *)
  let rec setups n times =
    let env, s = timed "setup" (fun () -> setup ~seed ~scale ~tmp_dir w) in
    if n = 1 then (env, median (s :: times)) else setups (n - 1) (s :: times)
  in
  let env, setup_s = setups setup_reps [] in
  let refs = reference env in
  let min_passes = if traced then max 2 (min_passes + (min_passes mod 2)) else min_passes in
  let t0 = now_ns () in
  (* Untraced runs time only untraced passes; traced runs alternate an
     untraced and a library-traced pass, so both see the same heap
     state and the difference is the tracing overhead. *)
  let rec loop n acc =
    (* Stop before a pass that would end past the time budget. *)
    let last = match acc with (_, p) :: _ -> p.host_s | [] -> 0. in
    let enough = n >= min_passes && seconds_since t0 +. last > seconds in
    if enough then List.rev acc
    else begin
      Spans.pass := n + 1;
      let lib_traced = traced && n mod 2 = 1 in
      let p =
        Spans.time "pass" (fun () -> run_pass ~traced:lib_traced ?expect_state env refs)
      in
      loop (n + 1) ((lib_traced, p) :: acc)
    end
  in
  let all = loop 0 [] in
  Spans.pass := 0;
  let passes = List.map snd all in
  let untraced = List.filter_map (fun (t, p) -> if t then None else Some p) all in
  let lib_traced = List.filter_map (fun (t, p) -> if t then Some p else None) all in
  (* The simulated outcome must not depend on the pass or on tracing,
     and the recorded log must re-encode to the same bytes. *)
  let reference_signature = (List.hd passes).signature in
  let codec =
    match (traced, env.w.kind) with
    | true, Seglog_roundtrip -> Some (seglog_codec_probe env)
    | _ -> None
  in
  let passes =
    List.mapi
      (fun i p ->
        let extra =
          (if p.signature = reference_signature then []
           else
             [
               Printf.sprintf "simulated outcome differs from pass 1 (%s vs %s)"
                 p.signature reference_signature;
             ])
          @
          match codec with
          | Some (_, _, false) when i = List.length passes - 1 ->
            [ "seglog re-encode differs from the recorded files" ]
          | _ -> []
        in
        { p with failures = extra @ p.failures })
      passes
  in
  let metrics =
    if traced then per_layer env refs ~untraced ~traced:lib_traced ~codec
    else end_to_end refs ~setup_s ~passes
  in
  let failures =
    List.sort_uniq compare (List.concat_map (fun (p : pass) -> p.failures) passes)
  in
  List.iter remove_tree env.log_dirs;
  remove_tree tmp_dir;
  {
    workload = w.name;
    seed;
    traced;
    attempted = List.length passes;
    failed = List.length (List.filter (fun (p : pass) -> p.failures <> []) passes);
    failures;
    state_digest = (List.hd passes).state_digest;
    metrics;
    passes;
    spans = !Spans.trace;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let result_json r =
  let metric (x : metric) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s, \"clock\": %s}" (json_string x.name)
      (json_float x.value) (json_string x.unit_) (json_string (clock_name x.clock))
  in
  (* Per-pass samples behind the medians, in run order. *)
  let pass (p : pass) =
    Printf.sprintf
      "{\"lib_traced\": %b, \"host_s\": %s, \"alloc_mwords\": %s, \"failed\": %b}"
      (p.sink <> None) (json_float p.host_s)
      (json_float (p.alloc_words /. 1e6))
      (p.failures <> [])
  in
  Printf.sprintf
    "{\"workload\": %s, \"seed\": %Ld, \"traced\": %b, \"attempted\": %d, \"failed\": %d, \
     \"failures\": [%s], \"state_digest\": \"%016Lx\", \"metrics\": {%s}, \"passes\": [%s]}"
    (json_string r.workload) r.seed r.traced r.attempted r.failed
    (String.concat ", " (List.map json_string r.failures))
    r.state_digest
    (String.concat ", " (List.map metric r.metrics))
    (String.concat ", " (List.map pass r.passes))
