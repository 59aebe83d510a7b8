(** Pending-event set of the simulator: an indexed binary min-heap of
    scheduled activity completions, keyed by activity id, with at most
    one entry per activity.

    Entries are ordered by completion time, with FIFO tie-breaking on
    equal times (insertion sequence), so runs are deterministic. Every
    {!push} takes a fresh sequence number, including a re-push of an
    activity that is already scheduled: a rescheduled activity goes
    behind any entry of equal time pushed before it.

    Canceling an activity removes its entry ({!remove}), so {!pop} only
    ever returns live completions. Once created, the heap allocates
    nothing. *)

type t

val create : int -> t
(** [create n] is an empty heap for activity ids [0 .. n - 1]. *)

val push : t -> act:int -> time:float -> unit
(** Schedules activity [act] at [time], replacing its entry if it
    already has one. [time] must be finite and non-negative
    ([Invalid_argument] otherwise). *)

val remove : t -> int -> unit
(** [remove h act] drops [act]'s entry; a no-op when it has none. *)

val mem : t -> int -> bool
(** [mem h act] holds when [act] has an entry. *)

val pop : t -> int
(** Removes the earliest entry and returns its activity id, or [-1]
    when the heap is empty. *)

val time : t -> int -> float
(** [time h act] is the time [act] was last pushed with: its scheduled
    completion while it has an entry, and the popped time right after
    {!pop} returns it. *)

val size : t -> int
(** Number of entries, i.e. of scheduled activities. *)

val copy : t -> t
(** [copy h] is an independent heap with the same entries and insertion
    counter, so the copy and the original pop the same sequence under
    the same operations. Used to checkpoint executor state for the
    splitting engine. *)

val clear : t -> unit
(** [clear h] empties [h] and restarts its insertion counter, so it
    behaves as a fresh {!create}d heap. It touches only the live entries:
    the cost is the number of scheduled activities, not the capacity. *)

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] makes [dst] hold exactly [src]'s entries (times and
    insertion numbers included) and insertion counter, so [dst] pops the
    same sequence as [src] or its {!copy} would; [src] is only read. It
    costs the live entries of both heaps and allocates nothing. The
    heaps must have the same capacity ([Invalid_argument] otherwise).
    Used to resume a checkpoint in a reused executor workspace. *)
