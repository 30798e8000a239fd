type t = {
  id : int;
  data : Bytes.t;
  mutable refcount : int;
}

type allocator = {
  psize : int;
  poison : bool;
  mutable free : Bytes.t list; (* recycled page buffers, owned here *)
  mutable next_id : int;
  mutable live : int;
  mutable total : int;
  mutable copies : int;
}

let allocator ~page_size =
  if page_size <= 0 || page_size mod 8 <> 0 then
    invalid_arg "Frame.allocator: page_size must be a positive multiple of 8";
  {
    psize = page_size;
    poison = Util.Invariants.enabled ();
    free = [];
    next_id = 0;
    live = 0;
    total = 0;
    copies = 0;
  }

let page_size a = a.psize

let poison_byte = '\xA5'

let alloc a data =
  let id = a.next_id in
  a.next_id <- id + 1;
  a.live <- a.live + 1;
  a.total <- a.total + 1;
  { id; data; refcount = 1 }

(* A recycled buffer if one is free (contents undefined: the caller
   overwrites every byte), else a fresh one. *)
let take_buffer a =
  match a.free with
  | b :: rest ->
    a.free <- rest;
    b
  | [] -> Bytes.create a.psize

let alloc_zero a =
  let data = take_buffer a in
  Bytes.fill data 0 a.psize '\000';
  alloc a data

let alloc_copy a f =
  a.copies <- a.copies + 1;
  let data = take_buffer a in
  Bytes.blit f.data 0 data 0 a.psize;
  alloc a data

let incref f = f.refcount <- f.refcount + 1

let decref a f =
  if f.refcount <= 0 then invalid_arg "Frame.decref: refcount already zero";
  f.refcount <- f.refcount - 1;
  if f.refcount = 0 then begin
    a.live <- a.live - 1;
    if a.poison then Bytes.fill f.data 0 a.psize poison_byte;
    a.free <- f.data :: a.free
  end

let live_frames a = a.live
let total_allocated a = a.total
let copies a = a.copies
