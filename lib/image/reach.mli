(** Symbolic reachability: the least fixpoint of the image operator from the
    initial state (Touati et al., ICCAD'90 — "implicit state enumeration").
    The reachable set is the accepting-state set of the automaton of a
    network (paper §2). {!fixpoint} is the library's single frontier/reached
    loop: {!reachable}, {!Equiv.check} and the solver's §4 checks all run
    on it. *)

type outcome =
  | Reached of { reached : int; steps : int }
      (** the frontier emptied: [reached] is the least fixpoint and [steps]
          the number of images computed (the diameter plus one) *)
  | Met_bad  (** a frontier satisfied [bad]; exploration stopped there *)

val fixpoint :
  Bdd.Manager.t ->
  ?bad:(int -> bool) ->
  ?on_frontier:(int -> unit) ->
  image:(int -> int) ->
  int ->
  outcome
(** [fixpoint man ~image init] explores breadth-first from [init]: each step
    images the frontier (the states first reached by the previous step),
    keeps the part not yet reached as the next frontier and adds it to the
    reached set. A step runs, in order: [on_frontier frontier] — also for
    the final, empty frontier; the stop on an empty frontier; [bad frontier]
    (default: never); [image frontier].

    Pinning: the reached set and the frontier stay on the operand stack
    for the whole loop (so [image], [bad] and [on_frontier] may allocate
    and collect), and each superseded iterate is dropped at once; an
    exception leaves them there until {!Bdd.Manager.reset_op_stack}. [image] must keep
    alive whatever else it uses, and [on_frontier] must pin a frontier it
    keeps beyond the call. The returned set is not protected. *)

val reachable : Network.Symbolic.t -> int * int
(** [(states, steps)]: the reachable states, as a BDD over the network's
    current-state variables, and the number of images {!fixpoint} computed
    ({!Image.forward}, partitioned/greedy). *)

val count_states : Network.Symbolic.t -> int -> float
(** Number of states in a set over the network's state variables. *)
