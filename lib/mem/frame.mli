(** Physical page frames.

    A frame is one page of backing store plus a reference count: the
    number of page-table entries (across all processes) that map it.
    Copy-on-write works exactly as in the kernel: [fork] bumps refcounts,
    and the first store through any mapping of a frame with
    [refcount > 1] copies it (see {!Page_table.store_prepare}).

    The map count is also the basis of the paper's AArch64 dirty-page
    tracking (§4.4): a page mapped exactly once is private to its process
    and hence modified-or-new since the last fork.

    {b Buffer lifecycle.} Page buffers are recycled: when {!decref}
    takes a frame's refcount to zero, its [data] buffer passes to the
    allocator's free list, and a later {!alloc_zero} or {!alloc_copy}
    overwrites it for a new frame. From that point the dead frame's
    [data] belongs to the allocator, so nothing may read or write it
    (page tables drop a mapping and its reference together). Frame ids
    are never reused: a recycled buffer always comes back under a fresh
    id. With [PARALLAFT_INVARIANTS] set, freed
    buffers are filled with a non-zero poison byte, so a read of a freed
    page changes simulated results instead of silently seeing old bytes. *)

type t = private {
  id : int;  (** unique physical frame number *)
  data : Bytes.t;
  mutable refcount : int;
}

type allocator
(** Allocates frames and tracks global statistics. *)

val allocator : page_size:int -> allocator
(** [allocator ~page_size] builds a fresh allocator with an empty free
    list. It poisons freed buffers iff {!Util.Invariants.enabled} holds
    when it is built.

    @raise Invalid_argument if [page_size] is not a positive multiple
    of 8. *)

val page_size : allocator -> int

val alloc_zero : allocator -> t
(** A fresh zero-filled frame with [refcount = 1]. Its buffer is a
    recycled one, zero-filled, when the free list has one. *)

val alloc_copy : allocator -> t -> t
(** [alloc_copy a f] is a fresh frame whose contents copy [f], with
    [refcount = 1]; its buffer is recycled when the free list has one.
    Counts toward {!copies} (the COW statistic). [f] must be a live frame
    of the same page size. *)

val incref : t -> unit

val decref : allocator -> t -> unit
(** Drop one reference; at zero the frame is accounted as freed and its
    [data] buffer joins the free list of [a] (poisoned first under
    [PARALLAFT_INVARIANTS]). The frame must come from [a].

    @raise Invalid_argument if the refcount is already zero. *)

(** {2 Statistics} *)

val live_frames : allocator -> int
val total_allocated : allocator -> int
val copies : allocator -> int
(** Number of [alloc_copy] calls so far — i.e. COW page copies. *)
