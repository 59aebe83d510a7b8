type mode = Exhaustive | Sampled

type t = {
  model : San.Model.t;
  mode : mode;
  markings : San.Marking.t list;
  n_stable : int;
  n_vanishing : int;
  loop : string option;
  truncated : bool;
  fallback : string option;
}

let n_markings t = List.length t.markings

let max_markings = 500
let seed = 7L

let sampled ~runs ~horizon ~fallback ~loop model =
  let seen = Hashtbl.create 256 in
  let samples = ref [] in
  let count = ref 0 in
  let loop_msg = ref loop in
  let consider m =
    if !count < max_markings then begin
      let key = (San.Marking.int_snapshot m, San.Marking.float_snapshot m) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        samples := San.Marking.copy m :: !samples;
        incr count
      end
    end
  in
  (* The raw initial marking: on_init only reports it after t = 0
     stabilization, but the checker wants to evaluate the setup
     instantaneous activities too. *)
  consider (San.Model.initial_marking model);
  (* Run [i] draws from substream [i] of the seed. A run that raises
     leaves the shared workspace reusable. *)
  let workspace = Sim.Executor.workspace model in
  let cfg = Sim.Executor.config ~max_inst_chain:10_000 ~horizon () in
  let observer =
    {
      Sim.Observer.nop with
      on_init = (fun _ m -> consider m);
      on_fire = (fun _ _ _ m -> consider m);
      on_finish = (fun _ m -> consider m);
    }
  in
  let (_ : Prng.Stream.t) =
    Prng.Stream.walk (Prng.Stream.create ~seed) runs (fun _ stream ->
        match
          Sim.Executor.run ~workspace ~model ~config:cfg ~stream ~observer ()
        with
        | (_ : Sim.Executor.outcome) -> ()
        | exception Sim.Executor.Stabilization_diverged msg ->
            if !loop_msg = None then loop_msg := Some msg
        | exception Invalid_argument _ -> ())
  in
  {
    model;
    mode = Sampled;
    markings = List.rev !samples;
    n_stable = !count;
    n_vanishing = 0;
    loop = !loop_msg;
    truncated = !count >= max_markings;
    fallback = Some fallback;
  }

let build ?(max_states = 200_000) ?(max_work = 25_000) ?(runs = 3)
    ?(horizon = 10.0) model =
  let vanishing = ref [] in
  let n_vanishing = ref 0 in
  let seen_vanishing = Hashtbl.create 64 in
  let on_vanishing m (_ : San.Activity.t list) =
    if !n_vanishing < max_states then begin
      let k = Ctmc.Walker.key_of_marking m in
      if not (Hashtbl.mem seen_vanishing k) then begin
        Hashtbl.add seen_vanishing k ();
        vanishing := San.Marking.copy m :: !vanishing;
        incr n_vanishing
      end
    end
  in
  let fall fallback loop =
    sampled ~runs ~horizon ~fallback ~loop model
  in
  match Ctmc.Walker.reachable ~max_states ~max_work ~on_vanishing model with
  | keys ->
      let stable =
        Array.to_list (Array.map (Ctmc.Walker.restore model) keys)
      in
      {
        model;
        mode = Exhaustive;
        markings = stable @ List.rev !vanishing;
        n_stable = Array.length keys;
        n_vanishing = !n_vanishing;
        loop = None;
        truncated = false;
        fallback = None;
      }
  | exception Failure msg ->
      fall (Printf.sprintf "an effect failed (%s)" msg) None
  | exception Ctmc.Walker.Too_many_states n ->
      fall (Printf.sprintf "state space exceeds %d markings" n) None
  | exception San.Effect.Too_many_outcomes n ->
      fall (Printf.sprintf "one firing forks into more than %d outcomes" n) None
  | exception Ctmc.Walker.Too_wide n ->
      fall
        (Printf.sprintf "one vanishing resolution visits more than %d markings"
           n)
        None
  | exception Ctmc.Walker.Work_budget n ->
      fall
        (Printf.sprintf
           "exhaustive walk exceeded its work budget (%d marking visits)" n)
        None
  | exception Ctmc.Walker.Vanishing_loop msg -> fall msg (Some msg)

let describe t =
  match t.mode with
  | Exhaustive ->
      Printf.sprintf "exhaustive: %d stable markings (+ %d vanishing)"
        t.n_stable t.n_vanishing
  | Sampled ->
      Printf.sprintf "sampled: %d distinct markings%s" t.n_stable
        (if t.truncated then ", truncated" else "")
