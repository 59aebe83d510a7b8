type change = { place : string; value : float }

type step = {
  time : float;
  activity : string;
  case : int;
  changes : change list;
}

type t = {
  rep : int;
  matched : bool;
  events : int;
  horizon : float;
  init : change list;
  steps : step list;
}

type place_stats = {
  place : string;
  mean_tokens : float;
  max_tokens : float;
  hit_runs : int;
  mean_first_hit : float;
}

(* Retention priority: a stateless mix of the replication index.
   Bottom-k by priority is a deterministic, order-independent, mergeable
   "reservoir": whichever domain ran replication i, the same k survive.
   [mix] is a bijection on int64, so distinct reps never tie. *)
let priority rep = Prng.Splitmix64.mix (Int64.of_int rep)

type sink = {
  (* configuration, shared (immutably) with forks *)
  predicate : (San.Marking.t -> bool) option;
  k : int;
  max_steps : int;
  place_of_uid : San.Place.any array;
  name_of_uid : string array;
  activities : San.Activity.t array;
  n_places : int;
  (* per-run scratch: the step buffer, struct-of-arrays grown
     geometrically — steady-state recording allocates nothing per event *)
  mutable times : float array;
  mutable acts : int array;
  mutable case_ids : int array;
  mutable d_start : int array;  (* per recorded step: offset into d_* *)
  mutable d_uid : int array;
  mutable d_val : float array;
  mutable n_steps : int;
  mutable n_deltas : int;
  mutable n_events : int;
  i_uid : int array;  (* places non-zero after setup *)
  i_val : float array;
  mutable n_init : int;
  mutable run_matched : bool;
  mutable run_horizon : float;
  (* per-run occupancy scratch, indexed by place uid *)
  cur : float array;
  since : float array;
  first_hit : float array;  (* nan until the place becomes non-zero *)
  (* cross-run occupancy totals *)
  integral : float array;
  occ_max : float array;
  hit_runs : int array;
  first_hit_sum : float array;
  mutable total_time : float;
  mutable runs : int;
  mutable matched_runs : int;
  (* retained trajectories, sorted by ascending priority, length <= k *)
  mutable kept_matching : (int64 * t) list;
  mutable kept_non_matching : (int64 * t) list;
}

let make ~predicate ~k ~max_steps ~place_of_uid ~name_of_uid ~activities
    ~n_places =
  {
    predicate;
    k;
    max_steps;
    place_of_uid;
    name_of_uid;
    activities;
    n_places;
    times = [||];
    acts = [||];
    case_ids = [||];
    d_start = [||];
    d_uid = [||];
    d_val = [||];
    n_steps = 0;
    n_deltas = 0;
    n_events = 0;
    i_uid = Array.make n_places 0;
    i_val = Array.make n_places 0.0;
    n_init = 0;
    run_matched = false;
    run_horizon = Float.nan;
    cur = Array.make n_places 0.0;
    since = Array.make n_places 0.0;
    first_hit = Array.make n_places Float.nan;
    integral = Array.make n_places 0.0;
    occ_max = Array.make n_places 0.0;
    hit_runs = Array.make n_places 0;
    first_hit_sum = Array.make n_places 0.0;
    total_time = 0.0;
    runs = 0;
    matched_runs = 0;
    kept_matching = [];
    kept_non_matching = [];
  }

let sink ?(k = 10) ?(max_steps = 100_000) ?predicate ~model () =
  if k < 0 then invalid_arg "Trajectory.sink: k must be >= 0";
  if max_steps < 0 then invalid_arg "Trajectory.sink: max_steps must be >= 0";
  let n_places = San.Model.n_places model in
  let anys =
    Array.to_list
      (Array.map (fun p -> San.Place.P p) (San.Model.places model))
    @ Array.to_list
        (Array.map (fun p -> San.Place.F p) (San.Model.float_places model))
  in
  match anys with
  | [] -> invalid_arg "Trajectory.sink: model has no places"
  | a0 :: _ ->
      let place_of_uid = Array.make n_places a0 in
      List.iter
        (fun a -> place_of_uid.(San.Place.any_uid a) <- a)
        anys;
      let name_of_uid = Array.map San.Place.any_name place_of_uid in
      make ~predicate ~k ~max_steps ~place_of_uid ~name_of_uid
        ~activities:(San.Model.activities model) ~n_places

let fork sk =
  make ~predicate:sk.predicate ~k:sk.k ~max_steps:sk.max_steps
    ~place_of_uid:sk.place_of_uid ~name_of_uid:sk.name_of_uid
    ~activities:sk.activities ~n_places:sk.n_places

let value_of m = function
  | San.Place.P p -> float_of_int (San.Marking.get m p)
  | San.Place.F p -> San.Marking.fget m p

let grow_steps sk =
  let cap = Array.length sk.times in
  let cap' = Int.max 256 (2 * cap) in
  let grow a fill =
    let b = Array.make cap' fill in
    Array.blit a 0 b 0 cap;
    b
  in
  sk.times <- grow sk.times 0.0;
  sk.acts <- grow sk.acts 0;
  sk.case_ids <- grow sk.case_ids 0;
  sk.d_start <- grow sk.d_start 0

let grow_deltas sk =
  let cap = Array.length sk.d_uid in
  let cap' = Int.max 1024 (2 * cap) in
  let grow a fill =
    let b = Array.make cap' fill in
    Array.blit a 0 b 0 cap;
    b
  in
  sk.d_uid <- grow sk.d_uid 0;
  sk.d_val <- grow sk.d_val 0.0

let check_predicate sk m =
  match sk.predicate with
  | Some p when not sk.run_matched -> sk.run_matched <- p m
  | _ -> ()

let on_init sk t m =
  sk.n_steps <- 0;
  sk.n_deltas <- 0;
  sk.n_events <- 0;
  sk.n_init <- 0;
  sk.run_matched <- false;
  sk.run_horizon <- Float.nan;
  for uid = 0 to sk.n_places - 1 do
    let v = value_of m sk.place_of_uid.(uid) in
    sk.cur.(uid) <- v;
    sk.since.(uid) <- t;
    if v <> 0.0 then begin
      sk.first_hit.(uid) <- t;
      if v > sk.occ_max.(uid) then sk.occ_max.(uid) <- v;
      sk.i_uid.(sk.n_init) <- uid;
      sk.i_val.(sk.n_init) <- v;
      sk.n_init <- sk.n_init + 1
    end
    else sk.first_hit.(uid) <- Float.nan
  done;
  check_predicate sk m

let on_fire sk t (a : San.Activity.t) c m =
  sk.n_events <- sk.n_events + 1;
  let record = sk.n_steps < sk.max_steps in
  if record then begin
    if sk.n_steps >= Array.length sk.times then grow_steps sk;
    sk.times.(sk.n_steps) <- t;
    sk.acts.(sk.n_steps) <- a.San.Activity.id;
    sk.case_ids.(sk.n_steps) <- c;
    sk.d_start.(sk.n_steps) <- sk.n_deltas
  end;
  List.iter
    (fun uid ->
      let v = value_of m sk.place_of_uid.(uid) in
      (* The journal can list a place whose effect reverted it; skip. *)
      if v <> sk.cur.(uid) then begin
        sk.integral.(uid) <-
          sk.integral.(uid) +. (sk.cur.(uid) *. (t -. sk.since.(uid)));
        sk.since.(uid) <- t;
        sk.cur.(uid) <- v;
        if v > sk.occ_max.(uid) then sk.occ_max.(uid) <- v;
        if v <> 0.0 && Float.is_nan sk.first_hit.(uid) then
          sk.first_hit.(uid) <- t;
        if record then begin
          if sk.n_deltas >= Array.length sk.d_uid then grow_deltas sk;
          sk.d_uid.(sk.n_deltas) <- uid;
          sk.d_val.(sk.n_deltas) <- v;
          sk.n_deltas <- sk.n_deltas + 1
        end
      end)
    (San.Marking.journal m);
  if record then sk.n_steps <- sk.n_steps + 1;
  check_predicate sk m

let on_finish sk t _m =
  for uid = 0 to sk.n_places - 1 do
    sk.integral.(uid) <-
      sk.integral.(uid) +. (sk.cur.(uid) *. (t -. sk.since.(uid)));
    sk.since.(uid) <- t;
    let fh = sk.first_hit.(uid) in
    if not (Float.is_nan fh) then begin
      sk.hit_runs.(uid) <- sk.hit_runs.(uid) + 1;
      sk.first_hit_sum.(uid) <- sk.first_hit_sum.(uid) +. fh
    end
  done;
  sk.total_time <- sk.total_time +. t;
  sk.run_horizon <- t

let observer sk =
  {
    Observer.on_init = on_init sk;
    on_advance = (fun _ _ _ -> ());
    on_fire = on_fire sk;
    on_finish = on_finish sk;
  }

(* --- retention --- *)

let snapshot sk ~rep =
  let init =
    List.init sk.n_init (fun i ->
        { place = sk.name_of_uid.(sk.i_uid.(i)); value = sk.i_val.(i) })
  in
  let steps =
    List.init sk.n_steps (fun i ->
        let lo = sk.d_start.(i) in
        let hi =
          if i + 1 < sk.n_steps then sk.d_start.(i + 1) else sk.n_deltas
        in
        {
          time = sk.times.(i);
          activity = sk.activities.(sk.acts.(i)).San.Activity.name;
          case = sk.case_ids.(i);
          changes =
            List.init (hi - lo) (fun j ->
                {
                  place = sk.name_of_uid.(sk.d_uid.(lo + j));
                  value = sk.d_val.(lo + j);
                });
        })
  in
  {
    rep;
    matched = sk.run_matched;
    events = sk.n_events;
    horizon = sk.run_horizon;
    init;
    steps;
  }

let rec insert entry = function
  | [] -> [ entry ]
  | e :: rest as l ->
      if Int64.unsigned_compare (fst entry) (fst e) < 0 then entry :: l
      else e :: insert entry rest

let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | e :: rest -> e :: take (k - 1) rest

let keep sk lst entry = take sk.k (insert entry lst)

let qualifies sk lst p =
  List.length lst < sk.k
  ||
  match List.rev lst with
  | (pmax, _) :: _ -> Int64.unsigned_compare p pmax < 0
  | [] -> true

let offer sk ~rep =
  sk.runs <- sk.runs + 1;
  if sk.run_matched then sk.matched_runs <- sk.matched_runs + 1;
  if sk.k > 0 then begin
    let p = priority rep in
    let lst = if sk.run_matched then sk.kept_matching else sk.kept_non_matching in
    if qualifies sk lst p then begin
      let lst' = keep sk lst (p, snapshot sk ~rep) in
      if sk.run_matched then sk.kept_matching <- lst'
      else sk.kept_non_matching <- lst'
    end
  end

let merge ~into src =
  if into.n_places <> src.n_places then
    invalid_arg "Trajectory.merge: sinks built for different models";
  for uid = 0 to into.n_places - 1 do
    into.integral.(uid) <- into.integral.(uid) +. src.integral.(uid);
    if src.occ_max.(uid) > into.occ_max.(uid) then
      into.occ_max.(uid) <- src.occ_max.(uid);
    into.hit_runs.(uid) <- into.hit_runs.(uid) + src.hit_runs.(uid);
    into.first_hit_sum.(uid) <-
      into.first_hit_sum.(uid) +. src.first_hit_sum.(uid)
  done;
  into.total_time <- into.total_time +. src.total_time;
  into.runs <- into.runs + src.runs;
  into.matched_runs <- into.matched_runs + src.matched_runs;
  List.iter
    (fun e -> into.kept_matching <- keep into into.kept_matching e)
    src.kept_matching;
  List.iter
    (fun e -> into.kept_non_matching <- keep into into.kept_non_matching e)
    src.kept_non_matching

let runs sk = sk.runs
let matched_runs sk = sk.matched_runs

let by_rep a b = compare a.rep b.rep
let matching sk = List.sort by_rep (List.map snd sk.kept_matching)
let non_matching sk = List.sort by_rep (List.map snd sk.kept_non_matching)
let retained sk = List.sort by_rep (matching sk @ non_matching sk)

let occupancy sk =
  List.init sk.n_places (fun uid ->
      let hit = sk.hit_runs.(uid) in
      {
        place = sk.name_of_uid.(uid);
        mean_tokens =
          (if sk.total_time > 0.0 then sk.integral.(uid) /. sk.total_time
           else 0.0);
        max_tokens = sk.occ_max.(uid);
        hit_runs = hit;
        mean_first_hit =
          (if hit > 0 then sk.first_hit_sum.(uid) /. float_of_int hit
           else Float.nan);
      })

(* --- JSON --- *)

module J = Report.Json

let changes_to_json cs =
  J.Arr
    (List.map (fun (c : change) -> J.Arr [ J.Str c.place; J.Num c.value ]) cs)

let to_json t =
  J.Obj
    [
      ("rep", J.int t.rep);
      ("matched", J.Bool t.matched);
      ("events", J.int t.events);
      ("horizon", J.Num t.horizon);
      ("init", changes_to_json t.init);
      ( "steps",
        J.Arr
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("t", J.Num s.time);
                   ("act", J.Str s.activity);
                   ("case", J.int s.case);
                   ("changes", changes_to_json s.changes);
                 ])
             t.steps) );
    ]

(* Decoding goes through {!Report.Json}'s located accessors. Floats use
   [get_float]: a non-finite value (a [nan] first-hit mean, an infinite
   horizon) is written as [null] and reads back as [nan]. *)

let change_of_json at j =
  match J.get_arr at j with
  | [ place; value ] ->
      {
        place = J.get_str (J.idx at 0) place;
        value = J.get_float (J.idx at 1) value;
      }
  | _ -> J.fail at "expected a [\"place\", value] pair, got %s" (J.short j)

let step_of_json at j =
  let kvs = J.get_obj at j in
  {
    time = J.field J.get_float at kvs "t";
    activity = J.field J.get_str at kvs "act";
    case = J.field J.get_int at kvs "case";
    changes = J.field (J.get_list change_of_json) at kvs "changes";
  }

let of_json =
  J.decode (fun j ->
      let at = "$" in
      let kvs = J.get_obj at j in
      {
        rep = J.field J.get_int at kvs "rep";
        matched = J.field J.get_bool at kvs "matched";
        events = J.field J.get_int at kvs "events";
        horizon = J.field J.get_float at kvs "horizon";
        init = J.field (J.get_list change_of_json) at kvs "init";
        steps = J.field (J.get_list step_of_json) at kvs "steps";
      })

let occupancy_to_json stats =
  J.Arr
    (List.map
       (fun s ->
         J.Obj
           [
             ("place", J.Str s.place);
             ("mean", J.Num s.mean_tokens);
             ("max", J.Num s.max_tokens);
             ("hit_runs", J.int s.hit_runs);
             ("mean_first_hit", J.Num s.mean_first_hit);
           ])
       stats)

let place_stats_of_json at j =
  let kvs = J.get_obj at j in
  {
    place = J.field J.get_str at kvs "place";
    mean_tokens = J.field J.get_float at kvs "mean";
    max_tokens = J.field J.get_float at kvs "max";
    hit_runs = J.field J.get_int at kvs "hit_runs";
    mean_first_hit = J.field J.get_float at kvs "mean_first_hit";
  }

let occupancy_of_json ?(at = "$") = J.decode (J.get_list place_stats_of_json at)
