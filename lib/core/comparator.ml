type result =
  | Match
  | Mismatch of Detection.mismatch

type compare_stats = {
  bytes_hashed : int;
  pages_skipped_identical : int;
}

let no_stats = { bytes_hashed = 0; pages_skipped_identical = 0 }

(* Merge two sorted vpn arrays into a fresh sorted duplicate-free array.
   A single linear pass into a worst-case-sized buffer; the [push]
   dedup also tolerates duplicates inside either input. *)
let union_sorted a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 && lb = 0 then [||]
  else begin
    let out = Array.make (la + lb) 0 in
    let k = ref 0 in
    let push v =
      if !k = 0 || out.(!k - 1) <> v then begin
        out.(!k) <- v;
        incr k
      end
    in
    let i = ref 0 and j = ref 0 in
    while !i < la && !j < lb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then begin
        push x;
        incr i
      end
      else if y < x then begin
        push y;
        incr j
      end
      else begin
        push x;
        incr i;
        incr j
      end
    done;
    while !i < la do
      push a.(!i);
      incr i
    done;
    while !j < lb do
      push b.(!j);
      incr j
    done;
    if !k = la + lb then out else Array.sub out 0 !k
  end

(* The per-side hashing state: either streaming XXH64 or an FNV
   accumulator. Memory pages contribute whole-page digests (below), so
   only vpns and digests ever flow through here. *)
type hash_state =
  | Xxh of Ftr_hash.Xxh64.state
  | Fnv of int64 ref

let make_state = function
  | Config.Xxh64_hash -> Xxh (Ftr_hash.Xxh64.init ())
  | Config.Fnv64_hash -> Fnv (ref 0xCBF29CE484222325L)

let mix_int st v =
  match st with
  | Xxh s -> Ftr_hash.Xxh64.update_int64 s (Int64.of_int v)
  | Fnv h -> h := Ftr_hash.Fnv64.combine !h (Int64.of_int v)

let mix_digest st d =
  match st with
  | Xxh s -> Ftr_hash.Xxh64.update_int64 s d
  | Fnv h -> h := Ftr_hash.Fnv64.combine !h d

let digest = function
  | Xxh s -> Ftr_hash.Xxh64.digest s
  | Fnv h -> !h

(* One whole-page digest; this is the only place page bytes are read. *)
let page_digest hasher data =
  match (hasher : Config.hasher) with
  | Config.Xxh64_hash -> Ftr_hash.Xxh64.hash data
  | Config.Fnv64_hash -> Ftr_hash.Fnv64.hash data

let compare_registers ~reference ~candidate =
  let ref_regs = Machine.Cpu.snapshot_regs reference in
  let cand_regs = Machine.Cpu.snapshot_regs candidate in
  let n = Array.length ref_regs in
  let rec scan i =
    if i >= n then begin
      let ref_pc = Machine.Cpu.get_pc reference in
      let cand_pc = Machine.Cpu.get_pc candidate in
      if ref_pc <> cand_pc then
        Some (Detection.Register_mismatch { reg = -1; expected = ref_pc; got = cand_pc })
      else None
    end
    else if cand_regs.(i) <> ref_regs.(i) then
      Some
        (Detection.Register_mismatch
           { reg = i; expected = ref_regs.(i); got = cand_regs.(i) })
    else scan (i + 1)
  in
  scan 0

let compare_states ~hasher ~reference ~candidate ~dirty_vpns () =
  match compare_registers ~reference ~candidate with
  | Some m -> (Mismatch m, no_stats)
  | None ->
    let ref_pt = Mem.Address_space.page_table (Machine.Cpu.aspace reference) in
    let cand_pt = Mem.Address_space.page_table (Machine.Cpu.aspace candidate) in
    let ref_state = make_state hasher in
    let cand_state = make_state hasher in
    let bytes = ref 0 in
    let skipped = ref 0 in
    let layout_issue = ref None in
    let n = Array.length dirty_vpns in
    let i = ref 0 in
    while !layout_issue = None && !i < n do
      let vpn = dirty_vpns.(!i) in
      (* Tolerate duplicates in a caller-supplied sorted set. *)
      if !i > 0 && dirty_vpns.(!i - 1) = vpn then ()
      else begin
        let ref_mapped = Mem.Page_table.is_mapped ref_pt ~vpn in
        let cand_mapped = Mem.Page_table.is_mapped cand_pt ~vpn in
        match (ref_mapped, cand_mapped) with
        | false, false -> ()
        | true, false | false, true ->
          layout_issue := Some (Detection.Layout_mismatch { vpn })
        | true, true ->
          let ref_data = Mem.Page_table.read_bytes_at ref_pt ~vpn in
          let cand_data = Mem.Page_table.read_bytes_at cand_pt ~vpn in
          if ref_data == cand_data then
            (* Both sides still map the same COW frame (physical identity
               of the backing bytes — frame ids are only unique within
               one allocator): byte-identical by construction. Skipping
               it on both sides leaves the two running hashes in
               lockstep, so the verdict is unchanged. *)
            incr skipped
          else begin
            bytes := !bytes + Bytes.length ref_data + Bytes.length cand_data;
            mix_int ref_state vpn;
            mix_int cand_state vpn;
            mix_digest ref_state (page_digest hasher ref_data);
            mix_digest cand_state (page_digest hasher cand_data)
          end
      end;
      incr i
    done;
    let stats = { bytes_hashed = !bytes; pages_skipped_identical = !skipped } in
    (match !layout_issue with
    | Some m -> (Mismatch m, stats)
    | None ->
      let expected_hash = digest ref_state and got_hash = digest cand_state in
      if Int64.equal expected_hash got_hash then (Match, stats)
      else (Mismatch (Detection.Memory_mismatch { expected_hash; got_hash }), stats))
