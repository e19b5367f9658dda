(** Tables keyed by node ids (or any non-negative int), for the memos of
    the solver's per-state path. Lookups and insertions allocate nothing
    and make no C call (a generic [Hashtbl] calls [caml_hash] and
    [compare] on every probe); only growth allocates. A table may be
    cleared and reused: {!clear} costs the number of entries, not the
    capacity. *)

type 'a t

val create : int -> 'a -> 'a t
(** [create n absent] is an empty table sized for about [n] entries;
    {!find} returns [absent] for a key it does not hold. Pick an
    [absent] that no stored value equals, or one that is physically
    distinct ([==]) from every stored value. *)

val find : 'a t -> int -> 'a
(** The value bound to a key, or the table's [absent] value. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind a key (which must be non-negative), replacing an earlier
    binding. *)

val clear : 'a t -> unit
(** Drop every binding, keeping the capacity. *)

val filter_inplace : 'a t -> (int -> 'a -> bool) -> unit
(** Keep the bindings that satisfy the predicate. *)
