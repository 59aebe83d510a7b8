(** Hand-built models the benchmark runs next to the ITUA model.

    Both are pure effect IR, so the orbit pass and the exact CTMC path can
    read every guard, rate and effect. *)

val two_state : unit -> San.Model.t
(** One place [up], failing at rate 1 and repaired at rate 10: the
    smallest model the executor can run, so its cost per event is the
    engine's own, with no model-specific setup. *)

val fleet :
  n:int ->
  rate_of:(int -> float) ->
  San.Model.t * Compose.info * San.Place.t array
(** [n] single-host domains, each a three-state attack cycle (0 clean
    -> 1 compromised -> 2 excluded -> 0) with compromise rate
    [rate_of i], exclusion rate 0.8 and restoration rate 0.5. A constant
    [rate_of] gives one orbit of [n] copies; {!hetero_rate} gives two.
    Returns the model, its composition tree and each copy's state
    place. The flat chain has [3^n] states. *)

val excluded : San.Place.t array -> San.Marking.t -> float
(** Number of copies in state 2: the symmetric measure both chains are
    compared on. *)

val homogeneous_rate : int -> float
(** 0.3 for every copy. *)

val hetero_rate : int -> float
(** The {!Itua.Study.hetero_fleet_params} fleet: 0.3 times its per-host
    multiplier (five hosts at 1, five at 2.5). *)

val hetero_size : int
(** Hosts in that fleet (10). *)
