exception Vanishing_loop of string
exception Too_many_states of int
exception Too_wide of int
exception Work_budget of int
exception Bad_weights of string

type key = int array * float array

let key_of_marking m =
  (San.Marking.int_snapshot m, San.Marking.float_snapshot m)

let restore model ((ints, floats) : key) =
  let m = San.Model.initial_marking model in
  Array.iteri
    (fun i p -> San.Marking.set m p ints.(i))
    (San.Model.places model);
  Array.iteri
    (fun i p -> San.Marking.fset m p floats.(i))
    (San.Model.float_places model);
  San.Marking.clear_journal m;
  m

let enabled_instantaneous model m =
  Array.fold_left
    (fun acc (a : San.Activity.t) ->
      if San.Activity.is_instantaneous a && a.enabled m then a :: acc else acc)
    []
    (San.Model.activities model)
  |> List.rev

let normalized_weights (a : San.Activity.t) m =
  let w = Array.map (fun c -> c.San.Activity.case_weight m) a.cases in
  let total = Array.fold_left ( +. ) 0.0 w in
  if not (total > 0.0) then
    raise
      (Bad_weights
         (Printf.sprintf "activity %s: case weights sum to %g" a.name total));
  Array.map (fun x -> x /. total) w

(* Apply one case's effect analytically: a [Pick] in the effect IR forks
   into its feasible branches with uniform weights instead of drawing
   randomness. Consumes [m]. *)
let case_outcomes (a : San.Activity.t) case m =
  let outs = ref [] in
  San.Effect.outcomes a.cases.(case).San.Activity.effect m (fun w m ->
      outs := (w, m) :: !outs);
  List.rev !outs

(* Resolve a marking into its stable-marking distribution by eliminating
   chains of instantaneous firings: uniform choice among the enabled
   instantaneous activities, case probabilities within each.  A cycle of
   vanishing markings shows up as unbounded recursion depth. *)
let max_depth = 10_000
let max_width = 50_000

let resolve_vanishing ?(charge = fun () -> ()) ?on_vanishing model m0 =
  let acc = Hashtbl.create 8 in
  let width = ref 0 in
  let rec go m prob depth =
    incr width;
    charge ();
    if !width > max_width then raise (Too_wide max_width);
    if depth > max_depth then
      raise
        (Vanishing_loop
           "instantaneous activities did not stabilize (cycle suspected)");
    match enabled_instantaneous model m with
    | [] ->
        let k = key_of_marking m in
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt acc k) in
        Hashtbl.replace acc k (prev +. prob)
    | enabled ->
        (match on_vanishing with
        | Some f -> f m enabled
        | None -> ());
        let p_act = prob /. float_of_int (List.length enabled) in
        List.iter
          (fun (a : San.Activity.t) ->
            let weights = normalized_weights a m in
            Array.iteri
              (fun case w ->
                if w > 0.0 then
                  List.iter
                    (fun (wo, m') -> go m' (p_act *. w *. wo) (depth + 1))
                    (case_outcomes a case (San.Marking.copy m)))
              weights)
          enabled
  in
  go m0 1.0 0;
  Hashtbl.fold (fun k p l -> (k, p) :: l) acc []

(* Growable array of state keys. *)
module Pool = struct
  type nonrec t = {
    mutable arr : key array;
    mutable size : int;
    index : (key, int) Hashtbl.t;
  }

  let dummy_key : key = ([||], [||])

  let create () =
    { arr = Array.make 256 dummy_key; size = 0; index = Hashtbl.create 1024 }

  (* Returns (id, freshly created?). *)
  let intern p ~max_states k =
    match Hashtbl.find_opt p.index k with
    | Some i -> (i, false)
    | None ->
        if p.size >= max_states then raise (Too_many_states max_states);
        if p.size = Array.length p.arr then begin
          let arr = Array.make (2 * p.size) dummy_key in
          Array.blit p.arr 0 arr 0 p.size;
          p.arr <- arr
        end;
        let i = p.size in
        p.arr.(i) <- k;
        p.size <- p.size + 1;
        Hashtbl.add p.index k i;
        (i, true)

  let size p = p.size
  let get p i = p.arr.(i)
end

let reachable ?(max_states = 200_000) ?(max_work = 10_000_000) ?on_vanishing
    model =
  let pool = Pool.create () in
  let frontier = Queue.create () in
  (* Deterministic effort bound: one unit per vanishing-resolution visit
     (the expensive step — an [enabled_instantaneous] scan plus effect
     forks). Models whose per-state cost is pathological trip it long
     before [max_states], so callers can fall back to sampling in
     seconds rather than minutes. *)
  let work = ref 0 in
  let charge () =
    incr work;
    if !work > max_work then raise (Work_budget max_work)
  in
  let intern k =
    let i, fresh = Pool.intern pool ~max_states k in
    if fresh then Queue.add i frontier
  in
  (* A broken effect (negative marking) prunes only its own successor; a
     broken weight function degrades to exploring every case. *)
  let successors_of_case m (a : San.Activity.t) case =
    match
      case_outcomes a case (San.Marking.copy m)
      |> List.concat_map (fun (_, m') ->
             resolve_vanishing ~charge ?on_vanishing model m')
    with
    | keys -> List.iter (fun (k, _) -> intern k) keys
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (k, _) -> intern k)
    (resolve_vanishing ~charge ?on_vanishing model
       (San.Model.initial_marking model));
  while not (Queue.is_empty frontier) do
    let i = Queue.pop frontier in
    let m = restore model (Pool.get pool i) in
    Array.iter
      (fun (a : San.Activity.t) ->
        match a.San.Activity.timing with
        | San.Activity.Instantaneous -> ()
        | San.Activity.Timed _ ->
            if a.enabled m then begin
              match normalized_weights a m with
              | weights ->
                  Array.iteri
                    (fun case w -> if w > 0.0 then successors_of_case m a case)
                    weights
              | exception Bad_weights _ ->
                  Array.iteri
                    (fun case _ -> successors_of_case m a case)
                    a.cases
            end)
      (San.Model.activities model)
  done;
  Array.init (Pool.size pool) (Pool.get pool)
