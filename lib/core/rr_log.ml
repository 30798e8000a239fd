(* The log IS a seglog event stream: [record] encodes straight into a
   growable byte buffer and cursors decode back out of it. Cursors hold
   byte positions, so the buffer can keep growing while a checker
   replays (the RAFT streaming mode) — a re-created reader over the
   same bytes sees every appended event. *)
type t = {
  buf : Seglog.Codec.wbuf;
  mutable n : int;
}

let create () = { buf = Seglog.Codec.wbuf (); n = 0 }

let record t ev =
  Seglog.Record.put_event t.buf ev;
  t.n <- t.n + 1

let length t = t.n

(* Decoding our own buffer cannot fail; a Codec.Error here is a codec
   bug, so it propagates. *)
let reader_at t pos =
  Seglog.Codec.rbuf ~pos ~limit:(Seglog.Codec.wlen t.buf) (Seglog.Codec.wdata t.buf)

let events t =
  let r = reader_at t 0 in
  List.init t.n (fun _ -> Seglog.Record.get_event r)

let signal_points t =
  List.filter_map
    (function
      | Seglog.Record.Ext_signal { at; signum } -> Some (at, signum)
      | Seglog.Record.Sys _ | Seglog.Record.Nondet _ -> None)
    (events t)

type cursor = {
  log : t;
  mutable pos : int;  (** byte offset of the next un-consumed event *)
}

let cursor t = { log = t; pos = 0 }

let rec next_interaction c =
  if c.pos >= Seglog.Codec.wlen c.log.buf then None
  else begin
    let r = reader_at c.log c.pos in
    let ev = Seglog.Record.get_event r in
    c.pos <- Seglog.Codec.rpos r;
    match ev with
    | Seglog.Record.Ext_signal _ -> next_interaction c
    | Seglog.Record.Sys _ | Seglog.Record.Nondet _ -> Some ev
  end

let remaining_interactions c =
  let r = reader_at c.log c.pos in
  let count = ref 0 in
  while Seglog.Codec.remaining r > 0 do
    match Seglog.Record.get_event r with
    | Seglog.Record.Sys _ | Seglog.Record.Nondet _ -> incr count
    | Seglog.Record.Ext_signal _ -> ()
  done;
  !count
