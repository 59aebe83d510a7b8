type via = Enabled | Dist | Weight | Effect

let via_index = function Enabled -> 0 | Dist -> 1 | Weight -> 2 | Effect -> 3

let via_name = function
  | Enabled -> "enabled"
  | Dist -> "dist"
  | Weight -> "weight"
  | Effect -> "effect"

type facts = {
  space : Space.t;
  n_acts : int;
  n_uids : int;
  act_name : string array;  (* activity id -> name *)
  place_name : string array;  (* place uid -> name *)
  declared : Bytes.t array;  (* activity id -> declared-reads uid set *)
  reads_by : Bytes.t array;  (* 4 * id + via_index -> read uid set *)
  writes : Bytes.t array;  (* activity id -> static write uid set *)
  ever_enabled : bool array;
  negative : (int * int * string) list;  (* activity id, case, message *)
  ties : string list list;  (* distinct simultaneous-enabled name sets *)
}

let space f = f.space

let dist_reads d =
  List.concat_map San.Effect.rexpr_reads (snd (San.Activity.dist_params d))

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
  let declared =
    Array.map
      (fun (a : San.Activity.t) ->
        let b = Bytes.make n_uids '\000' in
        List.iter (fun p -> Bytes.set b (San.Place.any_uid p) '\001') a.reads;
        b)
      acts
  in
  let reads_by =
    Array.init (4 * n_acts) (fun _ -> Bytes.make n_uids '\000')
  in
  let writes = Array.init n_acts (fun _ -> Bytes.make n_uids '\000') in
  let ever_enabled = Array.make n_acts false in
  let negative = Hashtbl.create 8 in
  let ties = Hashtbl.create 8 in
  let record set uids =
    List.iter (fun uid -> Bytes.set set uid '\001') uids
  in
  (* Reads and writes come from the IR syntax: a superset of what any
     firing can touch, so liveness (A005/A006), composition coverage and
     the undeclared-read checks are exact whether or not an activity is
     ever enabled. Weights count only for activities with several cases:
     a lone case's weight never changes the outcome. Only a closure
     timing ([dist_ir = None]) is traced on the markings. *)
  Array.iter
    (fun (a : San.Activity.t) ->
      let bits via = reads_by.((4 * a.id) + via_index via) in
      record (bits Enabled) (San.Effect.cond_reads a.guard);
      (match a.timing with
      | San.Activity.Timed { dist_ir = Some d; _ } ->
          record (bits Dist) (dist_reads d)
      | San.Activity.Timed { dist_ir = None; _ } | San.Activity.Instantaneous
        ->
          ());
      Array.iter
        (fun (c : San.Activity.case) ->
          if Array.length a.cases > 1 then
            record (bits Weight) (San.Effect.rexpr_reads c.weight_ir);
          record (bits Effect) (San.Effect.static_reads c.effect);
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
            (match a.timing with
            | San.Activity.Timed { dist; dist_ir = None; _ } ->
                let (_ : Dist.t), reads =
                  San.Marking.trace_reads m (fun () -> dist m)
                in
                record reads_by.((4 * a.id) + via_index Dist) reads
            | San.Activity.Timed { dist_ir = Some _; _ }
            | San.Activity.Instantaneous ->
                ());
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
    declared;
    reads_by;
    writes;
    ever_enabled;
    negative;
    ties;
  }

let reads f id via uid =
  Bytes.get f.reads_by.((4 * id) + via_index via) uid = '\001'

let is_declared f id uid = Bytes.get f.declared.(id) uid = '\001'

(* Guard and effect reads are checked by A013; A001 covers the timing
   and the weights, exactly for IR and traced for a closure timing. *)
let undeclared_reads f =
  let out = ref [] in
  for id = 0 to f.n_acts - 1 do
    List.iter
      (fun via ->
        for uid = 0 to f.n_uids - 1 do
          if reads f id via uid && not (is_declared f id uid) then
            out :=
              Diagnostic.v ~code:Diagnostic.undeclared_read
                ~severity:Diagnostic.Error
                ~source:(Diagnostic.Activity f.act_name.(id))
                (Printf.sprintf "%s reads undeclared place %S" (via_name via)
                   f.place_name.(uid))
              :: !out
        done)
      [ Dist; Weight ]
  done;
  !out

let negative_writes f =
  List.map
    (fun (id, case, msg) ->
      Diagnostic.v ~code:Diagnostic.negative_write ~severity:Diagnostic.Error
        ~source:(Diagnostic.Activity f.act_name.(id))
        (Printf.sprintf "case %d effect drives a marking negative (%s)" case
           msg))
    f.negative

(* {2 A013: exact IR declaration checks}

   The declared-reads contract is checked against the syntax tree
   itself — exact, no sampling. Three findings:

   - a guard reading an undeclared place is an {e Error}: the executor
     re-evaluates [enabled] only when a declared read changes, so the
     guard can go stale;
   - effect reads beyond the declared list are one aggregated {e Info}
     per activity: effect reads cannot cause missed wake-ups (effects
     run at firing time), so per-place warnings would be noise;
   - a write to a place some other activity reads without declaring is
     an {e Error} (stale wake-up), computed from the static write sets. *)

let ir_decls f =
  let model = f.space.Space.model in
  let acts = San.Model.activities model in
  let out = ref [] in
  Array.iter
    (fun (a : San.Activity.t) ->
      let id = a.San.Activity.id in
      List.iter
        (fun uid ->
          if not (is_declared f id uid) then
            out :=
              Diagnostic.v ~code:Diagnostic.ir_mismatch
                ~severity:Diagnostic.Error
                ~source:(Diagnostic.Activity f.act_name.(id))
                (Printf.sprintf
                   "guard reads place %S, which is missing from the declared \
                    reads list (exact: marking changes there cannot wake the \
                    activity)"
                   f.place_name.(uid))
              :: !out)
        (San.Effect.cond_reads a.guard);
      let extra = Hashtbl.create 8 in
      Array.iter
        (fun (c : San.Activity.case) ->
          List.iter
            (fun uid ->
              if not (is_declared f id uid) then Hashtbl.replace extra uid ())
            (San.Effect.static_reads c.effect))
        a.cases;
      let extra =
        Hashtbl.fold (fun uid () acc -> uid :: acc) extra []
        |> List.sort Int.compare
      in
      (match extra with
      | [] -> ()
      | uids ->
          let n = List.length uids in
          let shown = List.filteri (fun k _ -> k < 12) uids in
          let names =
            String.concat ", "
              (List.map (fun uid -> f.place_name.(uid)) shown)
          in
          let names =
            if n > List.length shown then
              Printf.sprintf "%s, ... and %d more" names
                (n - List.length shown)
            else names
          in
          out :=
            Diagnostic.v ~code:Diagnostic.ir_mismatch
              ~severity:Diagnostic.Info
              ~source:(Diagnostic.Activity f.act_name.(id))
              (Printf.sprintf
                 "IR effects read %d place(s) beyond the declared reads \
                  list: %s (exact; effect reads run at firing time and \
                  cannot miss wake-ups)"
                 n names)
            :: !out);
      (* Stale-wake-up writes, from the static write sets. *)
      for uid = 0 to f.n_uids - 1 do
        if Bytes.get f.writes.(id) uid = '\001' then begin
          let readers = ref [] in
          for r = f.n_acts - 1 downto 0 do
            if
              (not (is_declared f r uid))
              && (reads f r Enabled uid || reads f r Dist uid
                || reads f r Weight uid)
            then readers := f.act_name.(r) :: !readers
          done;
          if !readers <> [] then
            out :=
              Diagnostic.v ~code:Diagnostic.ir_mismatch
                ~severity:Diagnostic.Error
                ~source:(Diagnostic.Activity f.act_name.(id))
                (Printf.sprintf
                   "IR effect writes %S, which %s read(s) without \
                    declaring — this firing cannot wake them (exact)"
                   f.place_name.(uid)
                   (String.concat ", " !readers))
              :: !out
        end
      done)
    acts;
  !out

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
      if Bytes.get f.writes.(id) uid = '\001' then
        Bytes.set written uid '\001';
      if
        reads f id Enabled uid || reads f id Dist uid
        || reads f id Weight uid || reads f id Effect uid
      then Bytes.set read uid '\001'
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
  let touched id uid =
    is_declared f id uid
    || Bytes.get f.writes.(id) uid = '\001'
    || reads f id Enabled uid || reads f id Dist uid
    || reads f id Weight uid || reads f id Effect uid
  in
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
      undeclared_reads f;
      negative_writes f;
      ir_decls f;
      liveness f;
      instantaneous f;
      (match tree with None -> [] | Some info -> composition f info);
    ]
  |> List.sort_uniq Diagnostic.compare
