(** Small SAN models with known analytical behaviour, shared by the
    simulator and CTMC test suites. *)

type two_state = {
  ts_model : San.Model.t;
  up : San.Place.t;  (** 1 while the component works *)
}

val two_state : lambda:float -> mu:float -> two_state
(** Repairable component: fails at rate [lambda], repairs at rate [mu].
    Availability at time t is
    mu/(lambda+mu) + lambda/(lambda+mu) · exp (-(lambda+mu) t). *)

val two_state_availability : lambda:float -> mu:float -> float -> float
(** The closed-form availability above. *)

type queue = {
  q_model : San.Model.t;
  q_len : San.Place.t;  (** number of customers in the system *)
}

val mm1k : lambda:float -> mu:float -> k:int -> queue
(** M/M/1/K queue: Poisson arrivals (blocked when [k] customers present),
    exponential service. *)

val mm1k_steady : lambda:float -> mu:float -> k:int -> float array
(** Closed-form stationary distribution of the M/M/1/K queue,
    index = number in system. *)

type tandem = {
  td_model : San.Model.t;
  stage : San.Place.t;  (** 0, 1 or 2 *)
}

val tandem : r1:float -> r2:float -> tandem
(** Pure-death chain 0 → 1 → 2 with rates [r1] then [r2]; state 2 is
    absorbing. P(in state 2 by t) has a closed form, see
    {!tandem_absorbed}. *)

val tandem_absorbed : r1:float -> r2:float -> float -> float
(** P(absorbed by time t) for {!tandem} (distinct rates required). *)

type gong = { g_model : San.Model.t; g_state : San.Place.t }

val gong : unit -> gong
(** The Gong et al. nine-state intrusion-tolerance model (DISCEX'01),
    the same chain as [examples/gong_nine_state.ml]: nine states encoded
    in one place, every state reachable, state 0 initial. Useful as a
    known-size exhaustive-exploration target. *)

val golden_models : unit -> (string * San.Model.t) list
(** The committed [test/golden/*.model.json] models, loaded through
    [Serial], by file name. Found from [test/] (where [dune runtest]
    runs) or from the repository root. *)
