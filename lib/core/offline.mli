(** Offline replay of a persisted segment log (DESIGN.md §17).

    [parallaft_replay] re-checks a [--record-log] directory without the
    original run: a fresh simulation is created from the manifest's
    platform/seed/program identity and one traced process re-executes
    the whole recorded history segment by segment.

    The replay mechanics are the live checker's own: each decoded
    segment's events are loaded into an {!Rr_log} and driven through
    {!Replay_step} — interactions answered from the record, anonymous
    mmaps pinned to the recorded addresses, external signals delivered
    at their recorded execution points, checker-side fault plans
    re-armed — so an interaction divergence carries the same
    {!Detection.outcome} wording as the live run. This module adds what
    only the offline side has: the boundary file-backed mmaps
    re-established from each segment's preamble, the byte-for-byte
    comparison of registers and recorded dirty pages at every segment
    end, and the final-state digest ({!Stats.state_digest}) checked
    against the manifest after the last segment.

    Known limitation (documented in DESIGN.md §17): externally
    effectful syscalls are answered from the record, never re-executed,
    so the replayer's filesystem stays empty — file-backed mappings are
    reproduced from the content snapshot the recorder embeds in the
    preamble, not from a real file. *)

type reg_diff = {
  reg : int;
  expected : int;  (** the recorded (live main) value *)
  got : int;  (** the offline re-execution's value *)
}

(** First differing byte of the first differing recorded dirty page. *)
type page_diff = {
  vpn : int;
  offset : int;  (** byte offset within the page *)
  expected : int;  (** recorded byte value *)
  got : int;
}

type divergence = {
  segment : int;
  point : Exec_point.t;
      (** segment-relative execution point where the divergence was
          established (the first diverging point the replay can name) *)
  reason : string;
      (** {!Detection.outcome_to_string} of a {!Replay_step} failure, or
          the boundary comparison's own description *)
  reg_diffs : reg_diff list;  (** non-empty for register-state mismatches *)
  page_diff : page_diff option;
}

type verdict =
  | Verified of {
      segments : int;  (** segments replayed and compared clean *)
      final_hash : int64 option;  (** manifest's recorded final-state hash *)
      final_hash_matches : bool option;
          (** recomputed-vs-recorded digest comparison; [None] when the
              live main never exited (no recorded hash to check) *)
    }
  | Diverged of divergence

val replay :
  manifest:Seglog.Record.manifest ->
  segments:Seglog.Record.segment list ->
  (verdict, string) result
(** Re-execute and re-check the whole recorded history. [segments]
    must be the decoded segment files in manifest order ({!Reader}
    enforces the fingerprint; this function re-checks the id order).
    [Error] is an environment problem (unknown platform, undecodable
    program, replay stall) as opposed to a verified divergence. *)

val divergence_report : divergence -> string
(** Multi-line human-readable report: diverging segment + execution
    point, the register diffs, and the first differing page byte. *)
