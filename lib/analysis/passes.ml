type facts = {
  space : Space.t;
  n_acts : int;
  n_uids : int;
  act_name : string array;  (* activity id -> name *)
  place_name : string array;  (* place uid -> name *)
  reads : Bytes.t array;  (* activity id -> uids its functions read *)
  writes : Bytes.t array;  (* activity id -> static write uid set *)
  ever_enabled : bool array;
  negative : (int * int * string) list;  (* activity id, case, message *)
  ties : string list list;  (* distinct simultaneous-enabled name sets *)
}

let space f = f.space

let gather (space : Space.t) =
  let model = space.Space.model in
  let acts = San.Model.activities model in
  let n_acts = Array.length acts in
  let n_uids = San.Model.n_places model in
  let place_name = Array.make n_uids "" in
  Array.iter
    (fun p -> place_name.(San.Place.uid p) <- San.Place.name p)
    (San.Model.places model);
  Array.iter
    (fun p -> place_name.(San.Place.fuid p) <- San.Place.fname p)
    (San.Model.float_places model);
  let act_name = Array.map (fun (a : San.Activity.t) -> a.name) acts in
  let reads = Array.init n_acts (fun _ -> Bytes.make n_uids '\000') in
  let writes = Array.init n_acts (fun _ -> Bytes.make n_uids '\000') in
  let ever_enabled = Array.make n_acts false in
  let negative = Hashtbl.create 8 in
  let ties = Hashtbl.create 8 in
  let record set uids =
    List.iter (fun uid -> Bytes.set set uid '\001') uids
  in
  (* Reads and writes come from the IR syntax: a superset of what any
     firing can touch, so liveness (A005/A006) and composition coverage
     are exact whether or not an activity is ever enabled. [a.reads] is
     [ir_reads], or every place for a closure timing. *)
  Array.iter
    (fun (a : San.Activity.t) ->
      record reads.(a.id) (List.map San.Place.any_uid a.reads);
      Array.iter
        (fun (c : San.Activity.case) ->
          record reads.(a.id) (San.Effect.static_reads c.effect);
          record writes.(a.id) (San.Effect.static_writes c.effect))
        a.cases)
    acts;
  List.iter
    (fun m ->
      let inst = Ctmc.Walker.enabled_instantaneous model m in
      (match inst with
      | _ :: _ :: _ ->
          let names =
            List.map (fun (a : San.Activity.t) -> a.name) inst
            |> List.sort String.compare
          in
          Hashtbl.replace ties names ()
      | _ -> ());
      let stable = inst = [] in
      Array.iter
        (fun (a : San.Activity.t) ->
          if a.enabled m then begin
            ever_enabled.(a.id) <- true;
            let weights =
              if Array.length a.cases > 1 then
                Array.map
                  (fun (c : San.Activity.case) -> c.case_weight m)
                  a.cases
              else [| 1.0 |]
            in
            (* Fire only where the executor could: timed activities at
               stable markings, instantaneous ones at vanishing markings
               (an enabled instantaneous activity implies the marking is
               vanishing). *)
            if stable || San.Activity.is_instantaneous a then
              Array.iteri
                (fun case (c : San.Activity.case) ->
                  if weights.(case) > 0.0 then
                    (* Every feasible [Pick] branch is fired, so a
                       branch that underflows is found whichever one a
                       run would choose. *)
                    match
                      San.Effect.outcomes c.San.Activity.effect
                        (San.Marking.copy m) (fun _ _ -> ())
                    with
                    | () -> ()
                    | exception Invalid_argument msg ->
                        if not (Hashtbl.mem negative (a.id, case)) then
                          Hashtbl.add negative (a.id, case) msg
                    | exception San.Effect.Too_many_outcomes _ -> ()
                    | exception Failure _ ->
                        (* A [Pick] with no feasible branch: the
                           executor fails the same way. *)
                        ())
                a.cases
          end)
        acts)
    space.Space.markings;
  let negative =
    Hashtbl.fold (fun (id, case) msg acc -> (id, case, msg) :: acc) negative []
    |> List.sort (fun (a, b, _) (c, d, _) ->
           if a <> c then Int.compare a c else Int.compare b d)
  in
  let ties =
    Hashtbl.fold (fun names () acc -> names :: acc) ties []
    |> List.sort Stdlib.compare
  in
  {
    space;
    n_acts;
    n_uids;
    act_name;
    place_name;
    reads;
    writes;
    ever_enabled;
    negative;
    ties;
  }

let is_set bits id uid = Bytes.get bits.(id) uid = '\001'

let negative_writes f =
  List.map
    (fun (id, case, msg) ->
      Diagnostic.v ~code:Diagnostic.negative_write ~severity:Diagnostic.Error
        ~source:(Diagnostic.Activity f.act_name.(id))
        (Printf.sprintf "case %d effect drives a marking negative (%s)" case
           msg))
    f.negative

let liveness f =
  let severity =
    match f.space.Space.mode with
    | Space.Exhaustive -> Diagnostic.Warning
    | Space.Sampled -> Diagnostic.Info
  in
  let coverage =
    match f.space.Space.mode with
    | Space.Exhaustive ->
        Printf.sprintf "any of the %d reachable markings"
          (Space.n_markings f.space)
    | Space.Sampled ->
        Printf.sprintf "any of the %d sampled markings"
          (Space.n_markings f.space)
  in
  let out = ref [] in
  for id = 0 to f.n_acts - 1 do
    if not f.ever_enabled.(id) then
      out :=
        Diagnostic.v ~code:Diagnostic.dead_activity ~severity
          ~source:(Diagnostic.Activity f.act_name.(id))
          (Printf.sprintf "never enabled in %s" coverage)
        :: !out
  done;
  let written = Bytes.make f.n_uids '\000' in
  let read = Bytes.make f.n_uids '\000' in
  for id = 0 to f.n_acts - 1 do
    for uid = 0 to f.n_uids - 1 do
      if is_set f.writes id uid then Bytes.set written uid '\001';
      if is_set f.reads id uid then Bytes.set read uid '\001'
    done
  done;
  for uid = 0 to f.n_uids - 1 do
    if Bytes.get written uid = '\000' then
      out :=
        Diagnostic.v ~code:Diagnostic.never_written_place ~severity
          ~source:(Diagnostic.Place f.place_name.(uid))
          (Printf.sprintf "never written by any effect in %s" coverage)
        :: !out;
    if Bytes.get read uid = '\000' then
      out :=
        Diagnostic.v ~code:Diagnostic.never_read_place ~severity
          ~source:(Diagnostic.Place f.place_name.(uid))
          (Printf.sprintf
             "never read by any activity function in %s (measures may still \
              read it)"
             coverage)
        :: !out
  done;
  !out

let instantaneous f =
  let loops =
    match f.space.Space.loop with
    | Some msg ->
        [
          Diagnostic.v ~code:Diagnostic.instantaneous_loop
            ~severity:Diagnostic.Error ~source:Diagnostic.Model msg;
        ]
    | None -> []
  in
  let ties =
    List.map
      (fun names ->
        Diagnostic.v ~code:Diagnostic.instantaneous_tie
          ~severity:Diagnostic.Warning ~source:Diagnostic.Model
          (Printf.sprintf
             "instantaneous activities enabled simultaneously (executor \
              tie-breaks uniformly): %s"
             (String.concat ", " names)))
      f.ties
  in
  loops @ ties

let composition f (root : Compose.info) =
  let model = f.space.Space.model in
  let touched id uid = is_set f.reads id uid || is_set f.writes id uid in
  let out = ref [] in
  let rec subtree_ids (n : Compose.info) =
    let own =
      List.filter_map
        (fun name ->
          match San.Model.find_activity model name with
          | a -> Some a.San.Activity.id
          | exception Not_found -> None)
        n.activities
    in
    own @ List.concat_map subtree_ids n.children
  in
  let all_ids = List.init f.n_acts (fun id -> id) in
  let rec walk (n : Compose.info) =
    if n.children <> [] then begin
      (* A subtree that records no activities (say, a tree saved before
         its model named activities through [Compose.Ctx.activity])
         cannot be attributed, so degrade to "unused by the whole model"
         rather than flagging everything. *)
      let ids =
        match subtree_ids n with [] -> all_ids | ids -> ids
      in
      List.iter
        (fun p ->
          let uid = San.Place.any_uid p in
          if not (List.exists (fun id -> touched id uid) ids) then
            out :=
              Diagnostic.v ~code:Diagnostic.unused_shared_place
                ~severity:Diagnostic.Warning
                ~source:
                  (Diagnostic.Composition
                     (if n.path = "" then n.label else n.path))
                (Printf.sprintf
                   "shared place %S is never read or written by any \
                    activity in this subtree"
                   (San.Place.any_name p))
              :: !out)
        n.places
    end;
    List.iter walk n.children
  in
  walk root;
  !out

let all ?composition:tree f =
  List.concat
    [
      negative_writes f;
      liveness f;
      instantaneous f;
      (match tree with None -> [] | Some info -> composition f info);
    ]
  |> List.sort_uniq Diagnostic.compare
