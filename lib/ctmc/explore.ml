exception Non_markovian of string
exception Unsound_canon of string
exception Vanishing_loop = Walker.Vanishing_loop
exception Too_many_states = Walker.Too_many_states

type key = Walker.key

type t = {
  model : San.Model.t;
  states : key array;
  initial_dist : (int * float) list;
  transitions : (int * float) list array;
  exit_rates : float array;
}

let restore = Walker.restore

(* The analytical pipeline treats a weight bug as a modeling error, not a
   prunable successor like the checker does. *)
let normalized_weights a m =
  try Walker.normalized_weights a m
  with Walker.Bad_weights msg -> raise (Non_markovian msg)

let resolve_vanishing model m =
  try Walker.resolve_vanishing model m
  with Walker.Bad_weights msg -> raise (Non_markovian msg)

(* One-step expansion of a stable marking: [emit] receives every stable
   successor key (pre-canon) with its rate contribution. Factored out of
   the frontier loop so the canon audit below can expand a state without
   interning anything. *)
let expand model m emit =
  Array.iter
    (fun (a : San.Activity.t) ->
      match a.San.Activity.timing with
      | San.Activity.Instantaneous -> ()
      | San.Activity.Timed { dist; _ } ->
          if a.enabled m then begin
            let rate =
              match Dist.rate_of_exponential (dist m) with
              | Some r -> r
              | None ->
                  raise
                    (Non_markovian
                       (Printf.sprintf
                          "activity %s has non-exponential distribution %s"
                          a.name
                          (Format.asprintf "%a" Dist.pp (dist m))))
            in
            if rate > 0.0 then begin
              let weights = normalized_weights a m in
              Array.iteri
                (fun case w ->
                  if w > 0.0 then
                    Walker.case_outcomes a case (San.Marking.copy m)
                    |> List.iter (fun (wo, m') ->
                           List.iter
                             (fun (k, p) -> emit k (rate *. w *. wo *. p))
                             (resolve_vanishing model m')))
                weights
            end
          end)
    (San.Model.activities model)

let explore ?(max_states = 200_000) ?(canon = fun k -> k) ?(audit = false)
    ?obs ?profile model =
  (match profile with
  | None -> ()
  | Some p -> Obs.Profile.enter p Obs.Profile.Ctmc_explore);
  let pool = Walker.Pool.create () in
  let frontier = Queue.create () in
  (* Lumpability audit: a sound canon maps a state and its representative
     to identical one-step behaviour over canonical classes. Verified on
     every distinct pre-canon key whose representative differs. *)
  let successors_by_class m =
    let tbl = Hashtbl.create 16 in
    expand model m (fun k r ->
        let c = canon k in
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl c) in
        Hashtbl.replace tbl c (prev +. r));
    tbl
  in
  let audited = Hashtbl.create 256 in
  let audit_key k ck =
    if not (Hashtbl.mem audited k) then begin
      Hashtbl.add audited k ();
      if canon ck <> ck then
        raise
          (Unsound_canon
             "canon is not idempotent on a reachable state's representative");
      let s1 = successors_by_class (restore model k) in
      let s2 = successors_by_class (restore model ck) in
      (* Transitions staying inside the source's class are self-loops of
         the quotient on both sides; ignore them like the builder does. *)
      Hashtbl.remove s1 ck;
      Hashtbl.remove s2 ck;
      let check a b =
        Hashtbl.iter
          (fun c r ->
            let r' = Option.value ~default:0.0 (Hashtbl.find_opt b c) in
            let tol = 1e-9 *. Float.max 1.0 (Float.max (abs_float r) (abs_float r')) in
            if abs_float (r -. r') > tol then
              raise
                (Unsound_canon
                   (Printf.sprintf
                      "canon merges states with different one-step behaviour: rate to a canonical class differs (%.17g vs %.17g)"
                      r r')))
          a
      in
      check s1 s2;
      check s2 s1
    end
  in
  let intern k =
    let ck = canon k in
    if audit && ck <> k then audit_key k ck;
    let i, fresh = Walker.Pool.intern pool ~max_states ck in
    if fresh then Queue.add i frontier;
    i
  in
  let initial_dist =
    resolve_vanishing model (San.Model.initial_marking model)
    |> List.map (fun (k, p) -> (intern k, p))
  in
  let transitions = ref [] (* (source, target, rate), reversed *) in
  while not (Queue.is_empty frontier) do
    let i = Queue.pop frontier in
    let m = restore model (Walker.Pool.get pool i) in
    expand model m (fun k r ->
        let j = intern k in
        if j <> i then transitions := (i, j, r) :: !transitions)
  done;
  let n = Walker.Pool.size pool in
  let merged = Array.make n [] in
  (* Merge parallel transitions (same source and target). *)
  let per_source = Array.make n [] in
  List.iter
    (fun (i, j, r) -> per_source.(i) <- (j, r) :: per_source.(i))
    !transitions;
  for i = 0 to n - 1 do
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (j, r) ->
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl j) in
        Hashtbl.replace tbl j (prev +. r))
      per_source.(i);
    merged.(i) <-
      Hashtbl.fold (fun j r acc -> (j, r) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  done;
  let exit_rates =
    Array.map (List.fold_left (fun acc (_, r) -> acc +. r) 0.0) merged
  in
  (match obs with
  | None -> ()
  | Some reg ->
      let module R = Obs.Registry in
      let s = R.scope reg "ctmc" in
      R.add (R.counter s "explore_states") n;
      R.add
        (R.counter s "explore_transitions")
        (Array.fold_left (fun acc ts -> acc + List.length ts) 0 merged));
  (match profile with None -> () | Some p -> Obs.Profile.leave p);
  {
    model;
    states = Array.init n (Walker.Pool.get pool);
    initial_dist;
    transitions = merged;
    exit_rates;
  }

let n_states c = Array.length c.states
let initial_dist c = c.initial_dist
let transitions c i = c.transitions.(i)
let exit_rate c i = c.exit_rates.(i)
let marking c i = restore c.model c.states.(i)

let eval c f = Array.init (n_states c) (fun i -> f (marking c i))

let max_exit_rate c = Array.fold_left Float.max 0.0 c.exit_rates

let make_absorbing c is_absorbing =
  {
    c with
    transitions =
      Array.mapi
        (fun i ts -> if is_absorbing i then [] else ts)
        c.transitions;
    exit_rates =
      Array.mapi
        (fun i r -> if is_absorbing i then 0.0 else r)
        c.exit_rates;
  }
