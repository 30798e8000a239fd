(* The benchmark's own tests: every workload at a small scale.

   - every metric BENCHMARK.json names is emitted, with the unit it
     declares, and no pass fails;
   - the deterministic metrics repeat exactly: every Stats counter,
     simulated time, log size and profile phase across the passes of a
     run, traced or not; allocated words and peak heap across two runs
     of bench.exe (within one process, passes after the first differ by
     ~0.1% of their minor-heap words);
   - a wrong expected state digest fails every pass, and a wrong
     expected output fails the runs whose output is checked, which
     proves the correctness checks can fail. *)

module B = Perfbench
module P = Parallaft

(* (name, unit) of every metric in one section of BENCHMARK.json; a
   metric entry is the only object whose "name" is followed by "unit". *)
let declared_metrics ~section =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then None
      else if String.sub text i n = sub then Some (i + n)
      else go (i + 1)
    in
    go from
  in
  let string_at i =
    let j = String.index_from text i '"' in
    (String.sub text i (j - i), j)
  in
  let start = Option.get (find (Printf.sprintf "\"%s\"" section) 0) in
  let stop = Option.value (find "]" start) ~default:(String.length text) in
  let rec collect i acc =
    match find "\"name\": \"" i with
    | Some i when i < stop ->
      let name, j = string_at i in
      let unit_, j =
        match find "\"unit\": \"" j with
        | Some k -> string_at k
        | None -> Alcotest.fail "metric without a unit"
      in
      collect j ((name, unit_) :: acc)
    | _ -> List.rev acc
  in
  collect start []

let scale (w : B.workload) =
  (* The fault is armed in segment 1, which needs a few segments. *)
  match w.B.kind with B.Fleet_recovery -> 0.1 | B.Protect | B.Seglog_roundtrip -> 0.05

let run ?expect_state ~traced ~min_passes w =
  B.run ~scale:(scale w) ~min_passes ?expect_state ~tmp_dir:"perfbench-test-tmp"
    ~seed:7L ~seconds:0. ~traced w

let check_declared (r : B.result) ~section =
  List.iter
    (fun (name, unit_) ->
      match List.find_opt (fun (m : B.metric) -> m.B.name = name) r.B.metrics with
      | None -> Alcotest.failf "%s: %s missing" r.B.workload name
      | Some m -> Alcotest.(check string) (name ^ " unit") unit_ m.B.unit_)
    (declared_metrics ~section)

let check_clean (r : B.result) =
  Alcotest.(check (list string)) (r.B.workload ^ " failures") [] r.B.failures;
  Alcotest.(check int) "failed passes" 0 r.B.failed

(* Every counter a pass exposes, minus the rows only a traced pass has. *)
let counters (p : B.pass) =
  let rows =
    List.concat_map
      (fun st ->
        List.filter
          (fun (k, _) ->
            not
              (String.starts_with ~prefix:"profile." k
              || String.starts_with ~prefix:"cpu." k))
          (P.Stats.to_assoc st))
      (B.pass_stats p)
  in
  rows
  @ List.map
      (fun (name, s) -> (name, string_of_int s))
      (match p.B.seglog with
      | Some leg -> [ ("offline.segments", leg.B.offline_segments) ]
      | None -> [])

let phases (p : B.pass) =
  match p.B.sink with
  | Some s ->
    List.map
      (fun (name, ps) -> (name, ps.Obs.Profile.self_ns))
      (Obs.Profile.phases s.Obs.Sink.profile)
  | None -> Alcotest.fail "traced pass without a sink"

let untraced_run w () =
  let r = run ~traced:false ~min_passes:2 w in
  check_clean r;
  Alcotest.(check int) "attempted" 2 r.B.attempted;
  check_declared r ~section:"end_to_end";
  match r.B.passes with
  | [ a; b ] ->
    Alcotest.(check string) "simulated outcome repeats" a.B.signature b.B.signature;
    Alcotest.(check (list (pair string string))) "counters repeat" (counters a) (counters b)
  | _ -> Alcotest.fail "expected two passes"

let traced_run w () =
  (* Passes alternate untraced and library-traced: u, t, u, t. *)
  let r = run ~traced:true ~min_passes:4 w in
  check_clean r;
  check_declared r ~section:"per_layer";
  let untraced, traced = List.partition (fun (p : B.pass) -> p.B.sink = None) r.B.passes in
  Alcotest.(check int) "two traced passes" 2 (List.length traced);
  let t1 = List.nth traced 0 and t2 = List.nth traced 1 in
  Alcotest.(check (list (pair string int))) "profile phases repeat" (phases t1) (phases t2);
  Alcotest.(check bool) "profile phases recorded" true (phases t1 <> []);
  Alcotest.(check (list (pair string string)))
    "counters equal traced and untraced"
    (counters (List.hd untraced))
    (counters t1)

(* The value of [name] in bench.exe's result line. *)
let metric_value line name =
  let key = Printf.sprintf "\"%s\": {\"value\": " name in
  let n = String.length key in
  let rec find i =
    if i + n > String.length line then Alcotest.failf "%s missing" name
    else if String.sub line i n = key then i + n
    else find (i + 1)
  in
  let i = find 0 in
  String.sub line i (String.index_from line i ',' - i)

let bench_exe_run (w : B.workload) =
  let ic =
    Unix.open_process_args_in "./bench.exe"
      [|
        "bench.exe"; "--workload"; w.B.name; "--seed"; "7"; "--seconds"; "0";
        "--trace"; "0"; "--scale"; string_of_float (scale w);
        "--out-dir"; "perfbench-test-out";
      |]
  in
  let lines = In_channel.input_all ic |> String.trim |> String.split_on_char '\n' in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "bench.exe failed");
  List.nth lines (List.length lines - 1)

let repeats_across_runs w () =
  let a = bench_exe_run w and b = bench_exe_run w in
  List.iter
    (fun name ->
      Alcotest.(check string)
        (name ^ " repeats") (metric_value a name) (metric_value b name))
    [ "alloc_mwords"; "peak_heap_mb"; "sim_overhead_pct"; "sim_seg_per_s"; "failed_pct" ]

let wrong_state_fails () =
  let w = Option.get (B.find_workload "protect-compute") in
  let good = run ~traced:false ~min_passes:1 w in
  check_clean good;
  let r =
    run ~traced:false ~min_passes:2 ~expect_state:(Int64.lognot good.B.state_digest) w
  in
  Alcotest.(check int) "every pass failed" r.B.attempted r.B.failed;
  Alcotest.(check int) "two passes" 2 r.B.attempted;
  let pinned = run ~traced:false ~min_passes:1 ~expect_state:good.B.state_digest w in
  check_clean pinned

let wrong_output_fails () =
  let w = Option.get (B.find_workload "protect-compute") in
  let env = B.setup ~seed:7L ~scale:(scale w) ~tmp_dir:"perfbench-test-tmp" w in
  let refs = B.reference env in
  (* namd and the two hmmer inputs are checked; sjeng calls gettime. *)
  Alcotest.(check (list bool))
    "outputs checked" [ true; true; true; false ]
    (List.map (fun o -> Option.fold ~none:false ~some:(( <> ) "") o) refs.B.expected_output);
  Alcotest.(check (list string)) "clean pass" [] (B.run_pass ~traced:false env refs).B.failures;
  let wrong =
    {
      refs with
      B.expected_output = List.map (Option.map (fun o -> o ^ "x")) refs.B.expected_output;
    }
  in
  Alcotest.(check int)
    "three outputs differ" 3
    (List.length (B.run_pass ~traced:false env wrong).B.failures)

let () =
  Alcotest.run "perfbench"
    [
      ( "untraced",
        List.map
          (fun (w : B.workload) -> Alcotest.test_case w.B.name `Quick (untraced_run w))
          B.workloads );
      ( "traced",
        List.map
          (fun (w : B.workload) -> Alcotest.test_case w.B.name `Quick (traced_run w))
          B.workloads );
      ( "runs",
        List.map
          (fun (w : B.workload) ->
            Alcotest.test_case w.B.name `Quick (repeats_across_runs w))
          B.workloads );
      ( "check",
        [
          Alcotest.test_case "wrong expected state fails" `Quick wrong_state_fails;
          Alcotest.test_case "wrong expected output fails" `Quick wrong_output_fails;
        ] );
    ]
