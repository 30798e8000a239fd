let enabled () =
  match Sys.getenv_opt "PARALLAFT_INVARIANTS" with
  | Some "" | Some "0" | None -> false
  | Some _ -> true
