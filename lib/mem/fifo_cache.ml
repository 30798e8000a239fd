type t = {
  cap : int;
  resident : (int, int) Hashtbl.t; (* frame -> slot *)
  slots : int array; (* slot -> frame, -1 = free *)
  mutable filled : int;
  mutable free : int list; (* slots vacated by [remove] *)
  mutable rng_state : int; (* xorshift for victim selection *)
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Fifo_cache.create: capacity <= 0";
  {
    cap = capacity;
    resident = Hashtbl.create (2 * capacity);
    slots = Array.make capacity (-1);
    filled = 0;
    free = [];
    rng_state = 0x2545F491;
    hits = 0;
    misses = 0;
  }

let mem t frame = Hashtbl.mem t.resident frame

(* Deterministic xorshift; random replacement makes the miss rate degrade
   smoothly as the resident set outgrows capacity, instead of the
   all-or-nothing cliff FIFO/LRU exhibit on cyclic access patterns. *)
let next_victim t =
  let x = t.rng_state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = (x lxor (x lsl 17)) land max_int in
  t.rng_state <- x;
  x mod t.cap

(* Insert a non-resident [frame], returning the resident it displaced. *)
let install t frame =
  let slot =
    match t.free with
    | s :: rest ->
      t.free <- rest;
      s
    | [] ->
      if t.filled < t.cap then begin
        let s = t.filled in
        t.filled <- t.filled + 1;
        s
      end
      else next_victim t
  in
  let old = t.slots.(slot) in
  let evicted =
    if old >= 0 then begin
      Hashtbl.remove t.resident old;
      Some old
    end
    else None
  in
  t.slots.(slot) <- frame;
  Hashtbl.replace t.resident frame slot;
  evicted

let touch t frame =
  if Hashtbl.mem t.resident frame then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    ignore (install t frame);
    false
  end

let admit t frame =
  if Hashtbl.mem t.resident frame then begin
    t.hits <- t.hits + 1;
    None
  end
  else begin
    t.misses <- t.misses + 1;
    install t frame
  end

let remove t frame =
  match Hashtbl.find_opt t.resident frame with
  | None -> ()
  | Some slot ->
    Hashtbl.remove t.resident frame;
    t.slots.(slot) <- -1;
    t.free <- slot :: t.free

let hits t = t.hits
let misses t = t.misses
