(** Program-state comparison (§3.3, §4.4).

    At the end of a segment the checker's architectural state must equal
    the checkpoint taken when the main process crossed the same
    boundary. Registers (including the pc) are compared directly; memory
    is compared by hashing the contents of the modified pages on each
    side — the "injected hasher" trick that avoids copying page contents
    between processes — and comparing only the 64-bit digests.

    The memory walk reads only pages that are not shared:

    - {e Frame-identity short-circuit}: a vpn where both sides still map
      the same COW frame (physical identity of the backing bytes) is
      byte-identical by construction and skipped entirely (no read, no
      hash) — skipping symmetrically leaves both running hashes in
      lockstep, so verdicts are unchanged. It is what keeps
      [bytes_hashed] (and so the simulated hash cost) independent of
      how coarse the dirty-page backend is.
    - Every other vpn contributes its number and a whole-page digest of
      each side's bytes to that side's segment hash.

    Comparing a superset of the truly modified pages is sound; pages
    missing from one side's address space are a layout divergence and
    reported as a mismatch in their own right. *)

type result =
  | Match
  | Mismatch of Detection.mismatch

(** Work accounting for one [compare_states] call. [bytes_hashed] counts
    page bytes actually read and hashed, both sides (the injected
    hasher's simulated cost); identity-skipped pages contribute nothing
    to it. *)
type compare_stats = {
  bytes_hashed : int;
  pages_skipped_identical : int;  (** vpns skipped: same frame both sides *)
}

val compare_states :
  hasher:Config.hasher ->
  reference:Machine.Cpu.t ->
  candidate:Machine.Cpu.t ->
  dirty_vpns:int array ->
  unit ->
  result * compare_stats
(** [compare_states ~hasher ~reference ~candidate ~dirty_vpns ()]
    returns the verdict and the work accounting. [dirty_vpns] must be
    sorted; duplicates are tolerated. Register
    comparison runs first and stops at the first divergent register — a
    register mismatch is reported without touching memory. *)

val union_sorted : int array -> int array -> int array
(** Merge two sorted vpn arrays, removing duplicates — for combining the
    main-side and checker-side dirty sets. *)
