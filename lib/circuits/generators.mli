(** Parameterized sequential circuit families. These stand in for the
    ISCAS'89 benchmarks used by the paper (see DESIGN.md, substitution 2):
    each family produces a multi-level network with latches whose splitting
    yields language-equation instances of controllable difficulty.

    A size out of a family's range ([counter 0], [lfsr 1], [arbiter 1], a
    [random_logic] count below 1) or a detector pattern that is empty or
    has a character other than ['0']/['1'] raises [Invalid_argument] with
    a message naming the family and its bound. *)

val counter : int -> Network.Netlist.t
(** [counter n]: n-bit binary up-counter with an enable input; outputs the
    carry (overflow) signal. *)

val gray_counter : int -> Network.Netlist.t
(** n-bit binary counter state with Gray-coded outputs (n outputs). *)

val shift_register : int -> Network.Netlist.t
(** Serial-in/serial-out shift register with a parity output. *)

val pattern_detector : string -> Network.Netlist.t
(** Window detector: shifts the single input through [String.length s]
    latches and raises its output when the window equals the pattern
    (a string of ['0']/['1']). *)

val lfsr : int -> Network.Netlist.t
(** Fibonacci LFSR with an enable input and the last stage as output,
    tapping the two final stages. Latch 0 initializes to 1 so the
    register leaves the all-zero state. *)

val johnson : int -> Network.Netlist.t
(** Johnson (twisted-ring) counter with an enable input. *)

val traffic_light : unit -> Network.Netlist.t
(** The classic highway/farm-road controller: inputs [car] (farm-road
    sensor) and [tl] (long-timer tick), 2 state latches, outputs the
    one-hot green/yellow indicators. *)

val arbiter : int -> Network.Netlist.t
(** Round-robin token arbiter: [n] request inputs, [n] grant outputs, [n]
    one-hot token latches; the token advances when its holder is idle. *)

val vending : unit -> Network.Netlist.t
(** A 15-cent vending machine: inputs [nickel]/[dime], 2 state latches
    counting the credit in nickels (saturating at 15), outputs [dispense]
    (credit reached) and [maxed] (credit at the saturation point). *)

val random_logic :
  ?seed:int ->
  inputs:int ->
  outputs:int ->
  latches:int ->
  levels:int ->
  unit ->
  Network.Netlist.t
(** ISCAS-like circuit: a seeded random multi-level network. Each level adds
    2-input AND/OR/XOR nodes (with random input complementation) over random
    fanins from earlier levels; next-state and output functions are drawn
    from the last level. Deterministic for a fixed seed. This family is the
    workhorse of the Table-1 analog suite: its dense, irregular logic makes
    the *monolithic* transition-output relation blow up (as on the paper's
    benchmarks) while the per-latch partitions stay small. *)

val parallel : string -> Network.Netlist.t list -> Network.Netlist.t
(** Parallel (non-interacting) composition; component inputs, outputs and
    latches are prefixed with [mK.] (K = position) to stay disjoint.
    Splitting latches across components creates instances whose CSF grows
    multiplicatively. *)
