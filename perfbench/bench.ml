(* Command line of the end-to-end benchmark:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--out-dir DIR] [--scale F]

   Prints one JSON result object as the last line of stdout: every
   metric with its value, unit and clock. With --trace 1 it also writes
   the benchmark's spans to DIR/spans-<workload>-<seed>.json. --scale
   multiplies every program's outer iterations; the tests use it to run
   small. Exits 1 on a usage error. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR] \
     [--scale F]";
  prerr_endline
    ("workloads: "
    ^ String.concat ", " (List.map (fun w -> w.Perfbench.name) Perfbench.workloads));
  exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get key conv =
    match List.assoc_opt key opts with
    | None -> None
    | Some v -> (
      match conv v with Some x -> Some x | None -> usage ())
  in
  let need key conv = match get key conv with Some x -> x | None -> usage () in
  List.iter
    (fun (k, _) ->
      let known = [ "workload"; "seed"; "seconds"; "trace"; "out-dir"; "scale" ] in
      if not (List.mem k known) then usage ())
    opts;
  let w = need "workload" Perfbench.find_workload in
  let seed = need "seed" Int64.of_string_opt in
  let seconds = need "seconds" float_of_string_opt in
  let traced =
    need "trace" (function "0" -> Some false | "1" -> Some true | _ -> None)
  in
  let out_dir = Option.value (get "out-dir" Option.some) ~default:"." in
  let scale = Option.value (get "scale" float_of_string_opt) ~default:1.0 in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let tmp_dir = Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  let r = Perfbench.run ~scale ~tmp_dir ~seed ~seconds ~traced w in
  if traced then begin
    let path =
      Filename.concat out_dir (Printf.sprintf "spans-%s-%Ld.json" w.Perfbench.name seed)
    in
    Obs.Export.write_file ~path (Obs.Export.chrome_json r.Perfbench.spans)
  end;
  print_endline (Perfbench.result_json r)
