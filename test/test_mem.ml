let page_size = 4096

let fresh_pt () =
  Mem.Page_table.create (Mem.Frame.allocator ~page_size)

let fresh_as () = Mem.Address_space.create (Mem.Frame.allocator ~page_size)

let test_frame_refcounting () =
  let a = Mem.Frame.allocator ~page_size in
  let f = Mem.Frame.alloc_zero a in
  Alcotest.(check int) "live" 1 (Mem.Frame.live_frames a);
  Mem.Frame.incref f;
  Mem.Frame.decref a f;
  Alcotest.(check int) "still live" 1 (Mem.Frame.live_frames a);
  Mem.Frame.decref a f;
  Alcotest.(check int) "freed" 0 (Mem.Frame.live_frames a);
  try
    Mem.Frame.decref a f;
    Alcotest.fail "double free accepted"
  with Invalid_argument _ -> ()

let test_frame_alloc_validation () =
  (try
     ignore (Mem.Frame.allocator ~page_size:0);
     Alcotest.fail "zero page size accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Mem.Frame.allocator ~page_size:100);
    Alcotest.fail "non-multiple-of-8 accepted"
  with Invalid_argument _ -> ()

let test_pt_map_unmap () =
  let pt = fresh_pt () in
  Mem.Page_table.map_zero pt ~vpn:3 Mem.Page_table.Read_write;
  Alcotest.(check bool) "mapped" true (Mem.Page_table.is_mapped pt ~vpn:3);
  (try
     Mem.Page_table.map_zero pt ~vpn:3 Mem.Page_table.Read_write;
     Alcotest.fail "double map accepted"
   with Invalid_argument _ -> ());
  Mem.Page_table.unmap pt ~vpn:3;
  Alcotest.(check bool) "unmapped" false (Mem.Page_table.is_mapped pt ~vpn:3);
  try
    Mem.Page_table.unmap pt ~vpn:3;
    Alcotest.fail "double unmap accepted"
  with Invalid_argument _ -> ()

let test_pt_fault_on_unmapped () =
  let pt = fresh_pt () in
  try
    ignore (Mem.Page_table.read_frame pt ~vpn:9);
    Alcotest.fail "expected Page_fault"
  with Mem.Page_table.Page_fault { vpn = 9; write = false } -> ()

let test_pt_read_only_write_faults () =
  let pt = fresh_pt () in
  Mem.Page_table.map_zero pt ~vpn:1 Mem.Page_table.Read_only;
  try
    ignore (Mem.Page_table.store_prepare pt ~vpn:1);
    Alcotest.fail "expected Page_fault"
  with Mem.Page_table.Page_fault { vpn = 1; write = true } -> ()

let test_cow_fork_isolation () =
  let aspace = fresh_as () in
  Mem.Address_space.map_range aspace ~addr:0 ~len:page_size
    Mem.Page_table.Read_write;
  Mem.Address_space.store64 aspace 0 111;
  let child = Mem.Address_space.fork aspace in
  (* Child sees the parent's value... *)
  Alcotest.(check int) "child inherits" 111 (Mem.Address_space.load64 child 0);
  (* ...writes are isolated both ways... *)
  Mem.Address_space.store64 child 0 222;
  Alcotest.(check int) "parent unaffected" 111 (Mem.Address_space.load64 aspace 0);
  Mem.Address_space.store64 aspace 8 333;
  Alcotest.(check int) "child unaffected" 0 (Mem.Address_space.load64 child 8)

let test_cow_copy_counted () =
  let alloc = Mem.Frame.allocator ~page_size in
  let aspace = Mem.Address_space.create alloc in
  Mem.Address_space.map_range aspace ~addr:0 ~len:(4 * page_size)
    Mem.Page_table.Read_write;
  let child = Mem.Address_space.fork aspace in
  let copies0 = Mem.Frame.copies alloc in
  (* First write to a shared page copies it; the second does not. *)
  Mem.Address_space.store64 child 0 1;
  Alcotest.(check bool) "cow flagged" true (Mem.Address_space.last_cow child);
  Mem.Address_space.store64 child 8 2;
  Alcotest.(check bool) "second write no cow" false
    (Mem.Address_space.last_cow child);
  Alcotest.(check int) "exactly one copy" (copies0 + 1) (Mem.Frame.copies alloc)

let test_soft_dirty () =
  let aspace = fresh_as () in
  Mem.Address_space.map_range aspace ~addr:0 ~len:(4 * page_size)
    Mem.Page_table.Read_write;
  let pt = Mem.Address_space.page_table aspace in
  Mem.Page_table.clear_soft_dirty pt;
  Alcotest.(check (array int)) "clean after clear" [||]
    (Mem.Page_table.soft_dirty_pages pt);
  Mem.Address_space.store64 aspace (2 * page_size) 7;
  Mem.Address_space.store8 aspace 5 1;
  Alcotest.(check (array int)) "exactly the written pages" [| 0; 2 |]
    (Mem.Page_table.soft_dirty_pages pt);
  (* Reads never dirty. *)
  ignore (Mem.Address_space.load64 aspace (3 * page_size));
  Alcotest.(check (array int)) "reads don't dirty" [| 0; 2 |]
    (Mem.Page_table.soft_dirty_pages pt)

let test_map_count_tracking () =
  (* The PAGEMAP_SCAN method: after a fork, only written pages have map
     count 1. *)
  let aspace = fresh_as () in
  Mem.Address_space.map_range aspace ~addr:0 ~len:(4 * page_size)
    Mem.Page_table.Read_write;
  let child = Mem.Address_space.fork aspace in
  let child_pt = Mem.Address_space.page_table child in
  Alcotest.(check (array int)) "all shared after fork" [||]
    (Mem.Page_table.uniquely_mapped child_pt);
  Mem.Address_space.store64 child (page_size * 3) 9;
  Alcotest.(check (array int)) "written page unique" [| 3 |]
    (Mem.Page_table.uniquely_mapped child_pt)

let test_dirty_mechanisms_agree_after_fork () =
  (* Soft-dirty (cleared at fork time) and map-count must agree on pages
     written after a fork — the property that makes the two tracking
     backends interchangeable in the comparator. *)
  let aspace = fresh_as () in
  Mem.Address_space.map_range aspace ~addr:0 ~len:(8 * page_size)
    Mem.Page_table.Read_write;
  let child = Mem.Address_space.fork aspace in
  let child_pt = Mem.Address_space.page_table child in
  Mem.Page_table.clear_soft_dirty child_pt;
  Mem.Address_space.store64 child (page_size * 1) 1;
  Mem.Address_space.store64 child (page_size * 5) 2;
  Mem.Address_space.store8 child ((page_size * 6) + 100) 3;
  Alcotest.(check (array int)) "soft-dirty = map-count"
    (Mem.Page_table.soft_dirty_pages child_pt)
    (Mem.Page_table.uniquely_mapped child_pt)

let test_pss () =
  let alloc = Mem.Frame.allocator ~page_size in
  let aspace = Mem.Address_space.create alloc in
  Mem.Address_space.map_range aspace ~addr:0 ~len:(2 * page_size)
    Mem.Page_table.Read_write;
  let pt = Mem.Address_space.page_table aspace in
  Alcotest.(check int) "sole owner" (2 * page_size) (Mem.Page_table.pss_bytes pt);
  let child = Mem.Address_space.fork aspace in
  Alcotest.(check int) "halved when shared" page_size
    (Mem.Page_table.pss_bytes pt);
  Mem.Address_space.store64 child 0 5;
  (* Child copied page 0: child owns one page fully, shares one. *)
  Alcotest.(check int) "child pss"
    (page_size + (page_size / 2))
    (Mem.Page_table.pss_bytes (Mem.Address_space.page_table child))

let test_unaligned_access_across_pages () =
  let aspace = fresh_as () in
  Mem.Address_space.map_range aspace ~addr:0 ~len:(2 * page_size)
    Mem.Page_table.Read_write;
  let addr = page_size - 4 in
  Mem.Address_space.store64 aspace addr 0x1122334455667788;
  Alcotest.(check int) "straddling store/load roundtrip" 0x1122334455667788
    (Mem.Address_space.load64 aspace addr)

let test_read_write_bytes () =
  let aspace = fresh_as () in
  Mem.Address_space.map_range aspace ~addr:0 ~len:(2 * page_size)
    Mem.Page_table.Read_write;
  let data = Bytes.of_string "hello across a page boundary" in
  ignore (Mem.Address_space.write_bytes aspace ~addr:(page_size - 5) data);
  let back =
    Mem.Address_space.read_bytes aspace ~addr:(page_size - 5)
      ~len:(Bytes.length data)
  in
  Alcotest.(check string) "roundtrip" (Bytes.to_string data) (Bytes.to_string back)

let test_write_bytes_map () =
  let aspace = fresh_as () in
  Mem.Address_space.write_bytes_map aspace ~addr:(10 * page_size)
    (Bytes.of_string "auto-mapped");
  Alcotest.(check string) "loader path maps pages" "auto-mapped"
    (Bytes.to_string
       (Mem.Address_space.read_bytes aspace ~addr:(10 * page_size) ~len:11))

let test_segfault_exn () =
  let aspace = fresh_as () in
  try
    ignore (Mem.Address_space.load64 aspace 0xdead000);
    Alcotest.fail "expected Segfault"
  with Mem.Address_space.Segfault { write = false; _ } -> ()

let test_fifo_cache_basics () =
  let c = Mem.Fifo_cache.create ~capacity:2 in
  Alcotest.(check bool) "first touch misses" false (Mem.Fifo_cache.touch c 1);
  Alcotest.(check bool) "second touch hits" true (Mem.Fifo_cache.touch c 1);
  ignore (Mem.Fifo_cache.touch c 2);
  ignore (Mem.Fifo_cache.touch c 3);
  (* capacity 2: exactly one of {1, 2} was evicted to admit 3 *)
  Alcotest.(check bool) "newest resident" true (Mem.Fifo_cache.mem c 3);
  Alcotest.(check int) "one eviction"
    2
    (List.length (List.filter (Mem.Fifo_cache.mem c) [ 1; 2; 3 ]));
  Alcotest.(check int) "hits" 1 (Mem.Fifo_cache.hits c);
  Alcotest.(check int) "misses" 3 (Mem.Fifo_cache.misses c)

let test_fifo_cache_admit_reports_eviction () =
  let c = Mem.Fifo_cache.create ~capacity:1 in
  Alcotest.(check (option int)) "filling a free slot evicts nobody" None
    (Mem.Fifo_cache.admit c 1);
  Alcotest.(check (option int)) "hit evicts nobody" None (Mem.Fifo_cache.admit c 1);
  Alcotest.(check (option int)) "capacity-1 admit names the victim" (Some 1)
    (Mem.Fifo_cache.admit c 2);
  Alcotest.(check bool) "victim gone" false (Mem.Fifo_cache.mem c 1);
  Alcotest.(check bool) "newcomer resident" true (Mem.Fifo_cache.mem c 2);
  (* [remove] frees the slot, so the next admit reuses it silently. *)
  Mem.Fifo_cache.remove c 2;
  Alcotest.(check (option int)) "freed slot reused without eviction" None
    (Mem.Fifo_cache.admit c 3)

let test_frame_identity_in_place_vs_cow () =
  let aspace = fresh_as () in
  Mem.Address_space.map_range aspace ~addr:0 ~len:(2 * page_size)
    Mem.Page_table.Read_write;
  let pt = Mem.Address_space.page_table aspace in
  let id0 = Mem.Page_table.frame_id pt ~vpn:0 in
  (* Exclusively owned: the store lands in place. *)
  Mem.Address_space.store64 aspace 0 1;
  let id1 = Mem.Page_table.frame_id pt ~vpn:0 in
  Alcotest.(check int) "in-place write keeps the frame" id0 id1;
  (* COW: the child's write allocates a fresh frame and leaves the
     parent's frame untouched. *)
  let child = Mem.Address_space.fork aspace in
  let child_pt = Mem.Address_space.page_table child in
  Mem.Address_space.store64 child 0 2;
  let cid = Mem.Page_table.frame_id child_pt ~vpn:0 in
  Alcotest.(check bool) "cow allocates a fresh frame" true (cid <> id1);
  Alcotest.(check int) "parent frame id untouched by child cow" id1
    (Mem.Page_table.frame_id pt ~vpn:0)

let test_read_bytes_at_aliases_frame () =
  let aspace = fresh_as () in
  Mem.Address_space.map_range aspace ~addr:0 ~len:(2 * page_size)
    Mem.Page_table.Read_write;
  let pt = Mem.Address_space.page_table aspace in
  Mem.Address_space.store64 aspace 0 1;
  let child = Mem.Address_space.fork aspace in
  let child_pt = Mem.Address_space.page_table child in
  Alcotest.(check bool) "fork shares the buffer itself" true
    (Mem.Page_table.read_bytes_at pt ~vpn:0
    == Mem.Page_table.read_bytes_at child_pt ~vpn:0);
  Mem.Address_space.store64 child 0 2;
  Alcotest.(check bool) "read_bytes_at is the frame's own buffer" true
    (Mem.Page_table.read_bytes_at child_pt ~vpn:0
    == (Mem.Page_table.read_frame child_pt ~vpn:0).Mem.Frame.data);
  match Mem.Page_table.read_bytes_at pt ~vpn:6 with
  | exception Mem.Page_table.Page_fault { vpn = 6; write = false } -> ()
  | _ -> Alcotest.fail "expected Page_fault on unmapped vpn"

let qcheck_cow_preserves_parent =
  QCheck.Test.make ~name:"random child writes never leak to parent" ~count:100
    QCheck.(list_of_size Gen.(1 -- 50) (pair (int_bound (4 * 4096 - 9)) int))
    (fun writes ->
      let aspace = fresh_as () in
      Mem.Address_space.map_range aspace ~addr:0 ~len:(4 * 4096)
        Mem.Page_table.Read_write;
      List.iteri (fun i (addr, _) -> Mem.Address_space.store64 aspace addr i) writes;
      let snapshot =
        Mem.Address_space.read_bytes aspace ~addr:0 ~len:(4 * 4096)
      in
      let child = Mem.Address_space.fork aspace in
      List.iter (fun (addr, v) -> Mem.Address_space.store64 child addr v) writes;
      let after = Mem.Address_space.read_bytes aspace ~addr:0 ~len:(4 * 4096) in
      Bytes.equal snapshot after)

let qcheck_soft_dirty_covers_writes =
  QCheck.Test.make ~name:"soft-dirty covers every written page" ~count:100
    QCheck.(list_of_size Gen.(0 -- 30) (int_bound (8 * 4096 - 9)))
    (fun addrs ->
      let aspace = fresh_as () in
      Mem.Address_space.map_range aspace ~addr:0 ~len:(8 * 4096)
        Mem.Page_table.Read_write;
      let pt = Mem.Address_space.page_table aspace in
      Mem.Page_table.clear_soft_dirty pt;
      List.iter (fun a -> Mem.Address_space.store64 aspace a 1) addrs;
      let dirty = Mem.Page_table.soft_dirty_pages pt in
      List.for_all
        (fun a ->
          Array.mem (a / 4096) dirty
          && Array.mem ((a + 7) / 4096) dirty)
        addrs)

(* §4.4 equivalence: between checkpoints, the soft-dirty backend (clear
   bits at segment start, read at segment end) and the map-count backend
   (a page mapped exactly once is modified-or-new since the fork) must
   report the same dirty set. The model below mirrors the runtime: each
   "checkpoint" forks the main address space (the checkpoint keeps the
   shared frames alive) and clears the soft-dirty bits; only the newest
   checkpoint is kept, as map-count equivalence is stated against it. *)
let qcheck_dirty_backends_agree =
  QCheck.Test.make ~name:"soft-dirty and map-count backends agree" ~count:150
    QCheck.(list_of_size Gen.(0 -- 40) (pair bool (int_bound ((8 * 4096) - 9))))
    (fun ops ->
      let main = fresh_as () in
      Mem.Address_space.map_range main ~addr:0 ~len:(8 * 4096)
        Mem.Page_table.Read_write;
      let pt = Mem.Address_space.page_table main in
      let checkpoint prev =
        (match prev with
        | Some old ->
          Mem.Page_table.free_all (Mem.Address_space.page_table old)
        | None -> ());
        let child = Mem.Address_space.fork main in
        Parallaft.Dirty_tracker.clear Parallaft.Config.Soft_dirty pt;
        Some child
      in
      let backends_agree () =
        Parallaft.Dirty_tracker.collect Parallaft.Config.Soft_dirty pt
        = Parallaft.Dirty_tracker.collect Parallaft.Config.Map_count pt
      in
      let ckpt = ref (checkpoint None) in
      List.for_all
        (fun (store, addr) ->
          (if store then Mem.Address_space.store64 main addr addr
           else ckpt := checkpoint !ckpt);
          backends_agree ())
        ops)

(* COW bookkeeping: at any moment, every live frame's refcount equals
   the number of page-table entries mapping it (summed over all live
   processes), and tearing every process down frees every frame. *)
let qcheck_frame_refcounts_match_mappings =
  QCheck.Test.make ~name:"frame refcounts equal mapping counts; no leaks"
    ~count:100
    QCheck.(
      list_of_size
        Gen.(0 -- 40)
        (triple (int_bound 2) small_nat (int_bound ((8 * 4096) - 9))))
    (fun ops ->
      let alloc = Mem.Frame.allocator ~page_size in
      let first = Mem.Address_space.create alloc in
      Mem.Address_space.map_range first ~addr:0 ~len:(8 * 4096)
        Mem.Page_table.Read_write;
      let live = ref [ first ] in
      let pick i = List.nth !live (i mod List.length !live) in
      List.iter
        (fun (op, which, addr) ->
          match op with
          | 0 -> live := Mem.Address_space.fork (pick which) :: !live
          | 1 -> Mem.Address_space.store64 (pick which) addr addr
          | _ ->
            (* process exit; keep at least one process alive *)
            if List.length !live > 1 then begin
              let victim = pick which in
              Mem.Page_table.free_all (Mem.Address_space.page_table victim);
              live := List.filter (fun a -> a != victim) !live
            end)
        ops;
      let counts : (int, Mem.Frame.t * int) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun a ->
          Mem.Page_table.iter_mapped (Mem.Address_space.page_table a)
            (fun ~vpn:_ f ->
              let n =
                match Hashtbl.find_opt counts f.Mem.Frame.id with
                | Some (_, n) -> n
                | None -> 0
              in
              Hashtbl.replace counts f.Mem.Frame.id (f, n + 1)))
        !live;
      let refcounts_ok =
        Hashtbl.fold
          (fun _ (f, n) acc -> acc && f.Mem.Frame.refcount = n)
          counts true
      in
      List.iter
        (fun a -> Mem.Page_table.free_all (Mem.Address_space.page_table a))
        !live;
      refcounts_ok && Mem.Frame.live_frames alloc = 0)

(* Host-side page path against a naive model. Random operation sequences
   over three address spaces sharing one allocator run on the real
   Address_space/Page_table/Frame stack and on a model that keeps a
   private copy of every page's bytes. The model also tracks abstract
   frames (which mappings share one, with refcounts) so it can predict
   the allocator's counters. Pages are 64 bytes and the address range is
   8 pages, so mappings, forks, COW breaks and frees collide constantly:
   the frame free list is drained and refilled over and over, and every
   stale lookup-cache entry (after unmap or free_all, or a pte whose
   frame COW replaced) would surface as a wrong byte, a missing
   segfault or a counter off by one. Real frame ids must map one-to-one
   onto model frames for the whole run, so an id is never reused. *)
module Page_model = struct
  let psize = 64
  let npages = 8
  let nspaces = 3

  type op =
    | Map of int * int * int (* space, first vpn, pages *)
    | Unmap of int * int * int
    | Fork of int * int (* src, dst: dst exits, then becomes a fork of src *)
    | Load64 of int * int (* space, addr *)
    | Store64 of int * int * int (* space, addr, value *)
    | Write_bytes of int * int * int * char (* space, addr, len, fill *)
    | Free_all of int

  let show = function
    | Map (s, v, n) -> Printf.sprintf "map s%d vpn%d x%d" s v n
    | Unmap (s, v, n) -> Printf.sprintf "unmap s%d vpn%d x%d" s v n
    | Fork (a, b) -> Printf.sprintf "fork s%d->s%d" a b
    | Load64 (s, a) -> Printf.sprintf "load64 s%d @%d" s a
    | Store64 (s, a, v) -> Printf.sprintf "store64 s%d @%d=%d" s a v
    | Write_bytes (s, a, n, c) ->
      Printf.sprintf "write_bytes s%d @%d x%d %C" s a n c
    | Free_all s -> Printf.sprintf "free_all s%d" s

  let gen_op =
    let open QCheck.Gen in
    let space = int_bound (nspaces - 1) in
    let vpn = int_bound (npages - 1) in
    let span = int_range 1 3 in
    (* Any address whose 8-byte access stays in range, so some straddle
       a page boundary. *)
    let addr = int_bound ((npages * psize) - 8) in
    frequency
      [
        (3, map3 (fun s v n -> Map (s, v, n)) space vpn span);
        (2, map3 (fun s v n -> Unmap (s, v, n)) space vpn span);
        (2, map2 (fun a b -> Fork (a, b)) space space);
        (4, map2 (fun s a -> Load64 (s, a)) space addr);
        (5, map3 (fun s a v -> Store64 (s, a, v)) space addr small_signed_int);
        ( 2,
          map3
            (fun (s, a) n c -> Write_bytes (s, a, n, c))
            (pair space (int_bound ((npages * psize) - 1)))
            (int_range 1 (2 * psize))
            (map Char.chr (int_range 1 255)) );
        (1, map (fun s -> Free_all s) space);
      ]

  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map show ops))
      ~shrink:QCheck.Shrink.list
      QCheck.Gen.(list_size (int_range 1 60) gen_op)

  (* Model state: per space, vpn -> (model frame, private bytes). *)
  type m = {
    spaces : (int, int * Bytes.t) Hashtbl.t array;
    refs : (int, int) Hashtbl.t; (* model frame -> refcount *)
    mutable next : int;
    mutable live : int;
    mutable total : int;
    mutable copies : int;
  }

  let new_frame m bytes =
    let id = m.next in
    m.next <- id + 1;
    m.live <- m.live + 1;
    m.total <- m.total + 1;
    Hashtbl.replace m.refs id 1;
    (id, bytes)

  let drop m id =
    let n = Hashtbl.find m.refs id - 1 in
    Hashtbl.replace m.refs id n;
    if n = 0 then m.live <- m.live - 1

  (* The store side of one page: break sharing first, as the kernel does. *)
  let writable m s vpn =
    let tbl = m.spaces.(s) in
    let id, bytes = Hashtbl.find tbl vpn in
    if Hashtbl.find m.refs id > 1 then begin
      drop m id;
      m.copies <- m.copies + 1;
      let fresh = new_frame m (Bytes.copy bytes) in
      Hashtbl.replace tbl vpn fresh;
      snd fresh
    end
    else bytes

  (* Byte-wise model access: [None] = segfault on the first unmapped
     page, after the bytes before it landed (as the real stores do). *)
  let store_byte m s a c =
    let vpn = a / psize in
    if not (Hashtbl.mem m.spaces.(s) vpn) then false
    else begin
      Bytes.set (writable m s vpn) (a mod psize) c;
      true
    end

  let load_byte m s a =
    Option.map
      (fun (_, b) -> Bytes.get b (a mod psize))
      (Hashtbl.find_opt m.spaces.(s) (a / psize))

  let run ops =
    let alloc = Mem.Frame.allocator ~page_size:psize in
    let real = Array.init nspaces (fun _ -> Mem.Address_space.create alloc) in
    let m =
      {
        spaces = Array.init nspaces (fun _ -> Hashtbl.create 8);
        refs = Hashtbl.create 64;
        next = 0;
        live = 0;
        total = 0;
        copies = 0;
      }
    in
    let free_model s =
      Hashtbl.iter (fun _ (id, _) -> drop m id) m.spaces.(s);
      Hashtbl.reset m.spaces.(s)
    in
    (* real frame id <-> model frame, both ways, for the whole run *)
    let to_model = Hashtbl.create 64 and to_real = Hashtbl.create 64 in
    let fail fmt = Printf.ksprintf failwith fmt in
    let check_agree () =
      for s = 0 to nspaces - 1 do
        let pt = Mem.Address_space.page_table real.(s) in
        for vpn = 0 to npages - 1 do
          match Hashtbl.find_opt m.spaces.(s) vpn with
          | None ->
            if Mem.Page_table.is_mapped pt ~vpn then
              fail "s%d vpn %d mapped, model says unmapped" s vpn
          | Some (mid, bytes) ->
            if not (Mem.Page_table.is_mapped pt ~vpn) then
              fail "s%d vpn %d unmapped, model says mapped" s vpn;
            if not (Bytes.equal bytes (Mem.Page_table.read_bytes_at pt ~vpn))
            then fail "s%d vpn %d bytes differ" s vpn;
            let rid = Mem.Page_table.frame_id pt ~vpn in
            (match Hashtbl.find_opt to_model rid with
            | Some mid' when mid' <> mid ->
              fail "frame id %d reused (model frames %d and %d)" rid mid' mid
            | _ -> Hashtbl.replace to_model rid mid);
            match Hashtbl.find_opt to_real mid with
            | Some rid' when rid' <> rid ->
              fail "model frame %d backed by frame ids %d and %d" mid rid' rid
            | _ -> Hashtbl.replace to_real mid rid
        done
      done;
      let counter name want got =
        if want <> got then fail "%s: model %d, real %d" name want got
      in
      counter "copies" m.copies (Mem.Frame.copies alloc);
      counter "live_frames" m.live (Mem.Frame.live_frames alloc);
      counter "total_allocated" m.total (Mem.Frame.total_allocated alloc)
    in
    let segv f =
      match f () with
      | () -> false
      | exception Mem.Address_space.Segfault _ -> true
    in
    let step = function
      | Map (s, vpn, n) ->
        let n = min n (npages - vpn) in
        Mem.Address_space.map_range real.(s) ~addr:(vpn * psize)
          ~len:(n * psize) Mem.Page_table.Read_write;
        for v = vpn to vpn + n - 1 do
          if not (Hashtbl.mem m.spaces.(s) v) then
            Hashtbl.replace m.spaces.(s) v (new_frame m (Bytes.make psize '\000'))
        done
      | Unmap (s, vpn, n) ->
        Mem.Address_space.unmap_range real.(s) ~addr:(vpn * psize)
          ~len:(n * psize);
        for v = vpn to vpn + n - 1 do
          match Hashtbl.find_opt m.spaces.(s) v with
          | Some (id, _) ->
            drop m id;
            Hashtbl.remove m.spaces.(s) v
          | None -> ()
        done
      | Fork (src, dst) ->
        if src <> dst then begin
          Mem.Page_table.free_all (Mem.Address_space.page_table real.(dst));
          real.(dst) <- Mem.Address_space.fork real.(src);
          free_model dst;
          Hashtbl.iter
            (fun vpn ((id, _) as e) ->
              Hashtbl.replace m.refs id (Hashtbl.find m.refs id + 1);
              Hashtbl.replace m.spaces.(dst) vpn e)
            m.spaces.(src)
        end
      | Load64 (s, a) -> (
        let want = List.init 8 (fun i -> load_byte m s (a + i)) in
        match Mem.Address_space.load64 real.(s) a with
        | v ->
          List.iteri
            (fun i b ->
              match b with
              (* [load64] returns a 63-bit int: the top bit is lost. *)
              | Some c
                when let mask = if i = 7 then 0x7F else 0xFF in
                     Char.code c land mask = (v asr (8 * i)) land mask ->
                ()
              | Some _ -> fail "load64 s%d @%d: byte %d differs" s a i
              | None -> fail "load64 s%d @%d: read an unmapped page" s a)
            want
        | exception Mem.Address_space.Segfault _ ->
          if List.for_all Option.is_some want then
            fail "load64 s%d @%d: segfault on mapped pages" s a)
      | Store64 (s, a, v) ->
        let faulted = segv (fun () -> Mem.Address_space.store64 real.(s) a v) in
        let rec model i =
          i = 8
          || store_byte m s (a + i) (Char.chr ((v asr (8 * i)) land 0xFF))
             && model (i + 1)
        in
        if faulted = model 0 then fail "store64 s%d @%d: segfault disagrees" s a
      | Write_bytes (s, a, n, c) ->
        let faulted =
          segv (fun () ->
              ignore (Mem.Address_space.write_bytes real.(s) ~addr:a (Bytes.make n c)))
        in
        (* The real path walks page-sized chunks: a chunk on an unmapped
           page faults before any of its bytes land. *)
        let rec model i =
          i >= n
          ||
          let vpn = (a + i) / psize in
          let chunk = min (n - i) (psize - ((a + i) mod psize)) in
          Hashtbl.mem m.spaces.(s) vpn
          && begin
               for j = i to i + chunk - 1 do
                 ignore (store_byte m s (a + j) c)
               done;
               model (i + chunk)
             end
        in
        if faulted = model 0 then
          fail "write_bytes s%d @%d x%d: segfault disagrees" s a n
      | Free_all s ->
        Mem.Page_table.free_all (Mem.Address_space.page_table real.(s));
        free_model s
    in
    List.iter
      (fun op ->
        step op;
        check_agree ())
      ops;
    true
end

let qcheck_page_path_model =
  QCheck.Test.make ~name:"page path agrees with a copy-everything model"
    ~count:300 Page_model.arb Page_model.run

(* With the invariants switch on, a freed buffer is poisoned before it
   joins the free list, and both allocation paths still hand back exactly
   the bytes they promise when they recycle it. *)
let test_poisoned_buffer_recycled () =
  let saved = Sys.getenv_opt "PARALLAFT_INVARIANTS" in
  Unix.putenv "PARALLAFT_INVARIANTS" "1";
  let a = Mem.Frame.allocator ~page_size:64 in
  Unix.putenv "PARALLAFT_INVARIANTS" (Option.value saved ~default:"");
  let src = Mem.Frame.alloc_zero a in
  Bytes.fill src.Mem.Frame.data 0 64 'x';
  let victim = Mem.Frame.alloc_zero a in
  Bytes.fill victim.Mem.Frame.data 0 64 'v';
  let buf = victim.Mem.Frame.data in
  Mem.Frame.decref a victim;
  Alcotest.(check bool) "freed buffer poisoned (non-zero, not old bytes)" true
    (Bytes.for_all (fun c -> c <> '\000' && c <> 'v') buf);
  let z = Mem.Frame.alloc_zero a in
  Alcotest.(check bool) "alloc_zero recycled the buffer" true (z.Mem.Frame.data == buf);
  Alcotest.(check string) "alloc_zero zeroed it" (String.make 64 '\000')
    (Bytes.to_string z.Mem.Frame.data);
  Mem.Frame.decref a z;
  let c = Mem.Frame.alloc_copy a src in
  Alcotest.(check bool) "alloc_copy recycled the buffer" true (c.Mem.Frame.data == buf);
  Alcotest.(check string) "alloc_copy copied exactly" (String.make 64 'x')
    (Bytes.to_string c.Mem.Frame.data);
  Alcotest.(check bool) "fresh ids" true
    (c.Mem.Frame.id > z.Mem.Frame.id && z.Mem.Frame.id > victim.Mem.Frame.id)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "mem"
    [
      ( "frame",
        [
          tc "refcounting" `Quick test_frame_refcounting;
          tc "allocator validation" `Quick test_frame_alloc_validation;
          tc "poisoned buffer recycled" `Quick test_poisoned_buffer_recycled;
        ] );
      ( "page_table",
        [
          tc "map/unmap" `Quick test_pt_map_unmap;
          tc "fault on unmapped" `Quick test_pt_fault_on_unmapped;
          tc "read-only faults" `Quick test_pt_read_only_write_faults;
        ] );
      ( "page_table_frames",
        [
          tc "in-place vs cow frame identity" `Quick
            test_frame_identity_in_place_vs_cow;
          tc "read_bytes_at aliases the frame" `Quick
            test_read_bytes_at_aliases_frame;
        ] );
      ( "cow",
        [
          tc "fork isolation" `Quick test_cow_fork_isolation;
          tc "copies counted" `Quick test_cow_copy_counted;
          QCheck_alcotest.to_alcotest qcheck_cow_preserves_parent;
          QCheck_alcotest.to_alcotest qcheck_frame_refcounts_match_mappings;
          QCheck_alcotest.to_alcotest qcheck_page_path_model;
        ] );
      ( "dirty-tracking",
        [
          tc "soft-dirty" `Quick test_soft_dirty;
          tc "map-count" `Quick test_map_count_tracking;
          tc "mechanisms agree" `Quick test_dirty_mechanisms_agree_after_fork;
          QCheck_alcotest.to_alcotest qcheck_soft_dirty_covers_writes;
          QCheck_alcotest.to_alcotest qcheck_dirty_backends_agree;
        ] );
      ( "address_space",
        [
          tc "pss" `Quick test_pss;
          tc "unaligned across pages" `Quick test_unaligned_access_across_pages;
          tc "read/write bytes" `Quick test_read_write_bytes;
          tc "write_bytes_map" `Quick test_write_bytes_map;
          tc "segfault" `Quick test_segfault_exn;
        ] );
      ( "fifo_cache",
        [
          tc "basics" `Quick test_fifo_cache_basics;
          tc "admit reports eviction" `Quick test_fifo_cache_admit_reports_eviction;
        ] );
    ]
