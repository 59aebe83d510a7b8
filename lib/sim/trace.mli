(** Trace observer: pretty-prints every firing of a run, for debugging
    models. Attach via {!Runner.spec}'s [extra_observers] or directly to
    {!Executor.run}. *)

val observer :
  ?show_marking:bool -> model:San.Model.t -> Format.formatter -> Observer.t
(** [observer ~model ppf] logs one line per firing:
    ["t=1.2345 fire security_domains.domain[1].host[0].attack_host case 1"].
    With [~show_marking:true] it also dumps the non-zero places after each
    firing (verbose; intended for very small models). *)
