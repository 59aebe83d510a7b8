type t = {
  name : string;
  int_places : Place.t array;
  float_places : Place.fl array;
  activities : Activity.t array;
  by_place_name : (string, Place.any) Hashtbl.t;
  by_activity_name : (string, Activity.t) Hashtbl.t;
  (* Read-only run tables, built once here and shared by every run on
     every domain. *)
  dependents : Activity.t array array;  (* place uid -> reading activities *)
  instantaneous : int array;  (* ids of instantaneous activities *)
  (* The t = 0 template (see [reset_marking], [initial_instantaneous],
     [initial_timed]). *)
  initial : Marking.t;
  initial_inst : int array;
  initial_timed : int array;
}

module Builder = struct
  type _model = t

  type t = {
    bname : string;
    mutable ints : (Place.t * int) list;  (* reversed *)
    mutable n_ints : int;
    mutable floats : (Place.fl * float) list;
    mutable n_floats : int;
    mutable places : Place.any list;  (* reversed: a place's uid is its rank *)
    mutable acts : Activity.t list;
    mutable n_acts : int;
    names : (string, unit) Hashtbl.t;
    act_names : (string, unit) Hashtbl.t;
    mutable next_uid : int;
    mutable built : bool;
  }

  let create bname =
    {
      bname;
      ints = [];
      n_ints = 0;
      floats = [];
      n_floats = 0;
      places = [];
      acts = [];
      n_acts = 0;
      names = Hashtbl.create 64;
      act_names = Hashtbl.create 64;
      next_uid = 0;
      built = false;
    }

  let check_fresh b what tbl name =
    if b.built then invalid_arg "Model.Builder: builder already built";
    if Hashtbl.mem tbl name then
      invalid_arg (Printf.sprintf "Model.Builder: duplicate %s %S" what name);
    Hashtbl.add tbl name ()

  let int_place b ?(init = 0) name =
    check_fresh b "place" b.names name;
    if init < 0 then
      invalid_arg
        (Printf.sprintf "Model.Builder: place %S initial marking < 0" name);
    let p = Place.make_int ~name ~index:b.n_ints ~uid:b.next_uid in
    b.next_uid <- b.next_uid + 1;
    b.n_ints <- b.n_ints + 1;
    b.ints <- (p, init) :: b.ints;
    b.places <- Place.P p :: b.places;
    p

  let float_place b ?(init = 0.0) name =
    check_fresh b "place" b.names name;
    let p = Place.make_float ~name ~index:b.n_floats ~uid:b.next_uid in
    b.next_uid <- b.next_uid + 1;
    b.n_floats <- b.n_floats + 1;
    b.floats <- (p, init) :: b.floats;
    b.places <- Place.F p :: b.places;
    p

  (* The enabling predicate is a declarative guard, compiled to the
     [enabled] closure, and effects are [Effect.t] terms, so structural
     analysis reads the activity exactly and the executor runs them as
     they are. A constant parameter or weight out of range is rejected
     here rather than at its first sample. *)

  let activity_ir b ~name ~timing ~guard cases =
    check_fresh b "activity" b.act_names name;
    let reject fmt =
      Printf.ksprintf
        (fun msg ->
          invalid_arg
            (Printf.sprintf "Model.Builder: activity %S %s" name msg))
        fmt
    in
    if cases = [] then reject "needs at least one case";
    (match timing with
    | Activity.Timed { dist_ir = Some (Activity.DErlang (k, _)); _ } when k < 1
      ->
        reject "has an Erlang distribution with k = %d (must be >= 1)" k
    | Activity.Timed { dist_ir = Some (Activity.DExp (Effect.RConst 0.0)); _ }
      ->
        (* Never fires, as a rate that evaluates to 0 (see [Activity]). *)
        ()
    | Activity.Timed { dist_ir = Some d; _ } -> (
        match Option.map Dist.validate (Activity.constant_dist d) with
        | Some (Error msg) -> reject "has an invalid distribution: %s" msg
        | Some (Ok ()) | None -> ())
    | Activity.Timed { dist_ir = None; _ } | Activity.Instantaneous -> ());
    List.iteri
      (fun i (c : Activity.case) ->
        match c.weight_ir with
        | Effect.RConst w when not (Float.is_finite w && w >= 0.0) ->
            reject "has case %d weight %g (must be finite and >= 0)" i w
        | _ -> ())
      cases;
    let act =
      {
        Activity.id = b.n_acts;
        name;
        timing;
        enabled = Effect.cond_fn guard;
        guard;
        reads = [];
        cases = Array.of_list cases;
      }
    in
    b.n_acts <- b.n_acts + 1;
    b.acts <- act :: b.acts

  (* Fully-declarative entry points: the timing distribution and case
     weights are data, so the activity serializes. The derived closures
     evaluate the same float operations in the same order as a
     hand-written closure, keeping trajectories bit-identical when a
     model is ported (or reloaded from disk). *)

  let timed_dist_ir b ~name ?(policy = Activity.Resample) ~dist ~guard cases =
    activity_ir b ~name
      ~timing:
        (Activity.Timed
           { dist = Activity.dist_fn dist; policy; dist_ir = Some dist })
      ~guard cases

  let timed_exp_rate_ir b ~name ?policy ~rate ~guard effect =
    timed_dist_ir b ~name ?policy ~dist:(Activity.DExp rate) ~guard
      [ Activity.make_case effect ]

  let timed_exp_cases_rate_ir b ~name ?policy ~rate ~guard cases =
    timed_dist_ir b ~name ?policy ~dist:(Activity.DExp rate) ~guard
      (List.map
         (fun (w, effect) ->
           Activity.make_case ~weight:(Effect.RConst w) effect)
         cases)

  (* The one closure-rate builder: its timing has no declarative form, so
     the activity cannot be serialized or orbit-verified, and [build]
     makes it read every place. [?reads] is accepted and ignored. *)
  let timed_exp_ir b ~name ?(policy = Activity.Resample) ?reads:_ ~rate ~guard
      effect =
    activity_ir b ~name
      ~timing:
        (Activity.Timed
           {
             dist = (fun m -> Dist.Exponential { rate = rate m });
             policy;
             dist_ir = None;
           })
      ~guard [ Activity.make_case effect ]

  let instantaneous_ir b ~name ~guard effect =
    activity_ir b ~name ~timing:Activity.Instantaneous ~guard
      [ Activity.make_case effect ]

  let build b =
    if b.built then invalid_arg "Model.Builder.build: already built";
    b.built <- true;
    let ints = Array.of_list (List.rev b.ints) in
    let floats = Array.of_list (List.rev b.floats) in
    (* Each activity's [reads] is what its IR reads, in uid order; a
       closure timing, whose reads no one can see, reads every place. The
       dependents table and the analysis read this one list, so no read
       can miss a wake-up. *)
    let place_of_uid = Array.of_list (List.rev b.places) in
    let every_place = Array.to_list place_of_uid in
    let derive (a : Activity.t) =
      let reads =
        match a.timing with
        | Activity.Timed { dist_ir = None; _ } -> every_place
        | Activity.Timed { dist_ir = Some _; _ } | Activity.Instantaneous ->
            List.map (Array.get place_of_uid) (Activity.ir_reads a)
      in
      { a with reads }
    in
    let activities = Array.of_list (List.rev_map derive b.acts) in
    let by_place_name = Hashtbl.create (Array.length ints) in
    Array.iter
      (fun (p, _) -> Hashtbl.replace by_place_name (Place.name p) (Place.P p))
      ints;
    Array.iter
      (fun (p, _) -> Hashtbl.replace by_place_name (Place.fname p) (Place.F p))
      floats;
    let by_activity_name = Hashtbl.create (Array.length activities) in
    Array.iter
      (fun (a : Activity.t) -> Hashtbl.replace by_activity_name a.name a)
      activities;
    let ids_where pred =
      Array.of_list
        (List.filter_map
           (fun (a : Activity.t) -> if pred a then Some a.id else None)
           (Array.to_list activities))
    in
    let deps = Array.make b.next_uid [] in
    Array.iter
      (fun (a : Activity.t) ->
        List.iter
          (fun p ->
            let uid = Place.any_uid p in
            deps.(uid) <- a :: deps.(uid))
          a.reads)
      activities;
    let initial =
      Marking.create ~ints:(Array.length ints) ~floats:(Array.length floats)
    in
    Array.iter (fun (p, v) -> Marking.set initial p v) ints;
    Array.iter (fun (p, v) -> Marking.fset initial p v) floats;
    Marking.clear_journal initial;
    {
      name = b.bname;
      int_places = Array.map fst ints;
      float_places = Array.map fst floats;
      activities;
      by_place_name;
      by_activity_name;
      dependents = Array.map (fun l -> Array.of_list (List.rev l)) deps;
      instantaneous = ids_where Activity.is_instantaneous;
      initial;
      initial_inst =
        ids_where (fun a -> Activity.is_instantaneous a && a.enabled initial);
      initial_timed =
        ids_where (fun a ->
            (not (Activity.is_instantaneous a)) && a.enabled initial);
    }
end

let name m = m.name
let places m = m.int_places
let float_places m = m.float_places
let activities m = m.activities
let n_places m = Array.length m.int_places + Array.length m.float_places

let find_place_opt m s =
  match Hashtbl.find_opt m.by_place_name s with
  | Some (Place.P p) -> Some p
  | Some (Place.F _) | None -> None

let find_float_place_opt m s =
  match Hashtbl.find_opt m.by_place_name s with
  | Some (Place.F p) -> Some p
  | Some (Place.P _) | None -> None

let find_place m s =
  match find_place_opt m s with Some p -> p | None -> raise Not_found

let find_activity m s =
  match Hashtbl.find_opt m.by_activity_name s with
  | Some a -> a
  | None -> raise Not_found

let initial_marking m = Marking.copy m.initial
let reset_marking m mk = Marking.blit ~src:m.initial ~dst:mk

let dependents m uid =
  if uid < 0 || uid >= Array.length m.dependents then []
  else Array.to_list m.dependents.(uid)

let dependents_table m = m.dependents
let instantaneous_ids m = m.instantaneous
let initial_instantaneous m = m.initial_inst
let initial_timed m = m.initial_timed

let all_exponential m =
  let mk = initial_marking m in
  Array.for_all
    (fun (a : Activity.t) ->
      match a.timing with
      | Activity.Instantaneous -> true
      | Activity.Timed { dist; _ } -> Dist.is_exponential (dist mk))
    m.activities

let pp_summary ppf m =
  let inst =
    Array.fold_left
      (fun acc a -> if Activity.is_instantaneous a then acc + 1 else acc)
      0 m.activities
  in
  Format.fprintf ppf
    "model %S: %d int places, %d float places, %d activities (%d inst.)"
    m.name
    (Array.length m.int_places)
    (Array.length m.float_places)
    (Array.length m.activities)
    inst
