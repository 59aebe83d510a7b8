type case_dump = {
  cd_index : int;
  cd_rows : (string * int) list list;
  cd_unresolved : string list;
  cd_float : bool;
}

type activity_dump = {
  ad_name : string;
  ad_timing : string;  (** ["timed"] or ["instantaneous"] *)
  ad_guard_reads : string list;
  ad_reads : string list;
  ad_writes : string list;
  ad_cases : case_dump list;
}

type t = { model : string; activities : activity_dump list }

let dump model =
  let places = San.Model.places model in
  let n_int = Array.length places in
  let pname i =
    if i >= 0 && i < n_int then San.Place.name places.(i)
    else Printf.sprintf "?%d" i
  in
  let names = List.map pname in
  let acts =
    Array.to_list (San.Model.activities model)
    |> List.map (fun (a : San.Activity.t) ->
           let merge acc l = List.sort_uniq compare (acc @ l) in
           let all_reads = ref [] and all_writes = ref [] in
           let cases =
             Array.to_list a.San.Activity.cases
             |> List.mapi (fun i (c : San.Activity.case) ->
                    let eff = c.San.Activity.effect in
                    all_reads := merge !all_reads (San.Effect.static_reads eff);
                    all_writes :=
                      merge !all_writes (San.Effect.static_writes eff);
                    let ir =
                      Symbolic.read_case ~guard:a.San.Activity.guard eff
                    in
                    {
                      cd_index = i;
                      cd_rows =
                        List.map
                          (List.map (fun (p, d) -> (pname p, d)))
                          ir.Symbolic.ci_deltas;
                      cd_unresolved = names ir.Symbolic.ci_unresolved;
                      cd_float = ir.Symbolic.ci_float;
                    })
           in
           {
             ad_name = a.San.Activity.name;
             ad_timing =
               (match a.San.Activity.timing with
               | San.Activity.Instantaneous -> "instantaneous"
               | San.Activity.Timed _ -> "timed");
             ad_guard_reads =
               names (San.Effect.cond_reads a.San.Activity.guard);
             ad_reads = names !all_reads;
             ad_writes = names !all_writes;
             ad_cases = cases;
           })
  in
  { model = San.Model.name model; activities = acts }

let pp_row ppf row =
  Format.fprintf ppf "{%s}"
    (String.concat ", "
       (List.map (fun (p, d) -> Printf.sprintf "%s%+d" p d) row))

let pp ppf t =
  Format.fprintf ppf "compiled effect IR for model %S@." t.model;
  List.iter
    (fun ad ->
      Format.fprintf ppf "  %s (%s)@." ad.ad_name ad.ad_timing;
      (match ad.ad_guard_reads with
      | [] -> ()
      | l ->
          Format.fprintf ppf "    guard reads: %s@." (String.concat ", " l));
      let set l = if l = [] then "-" else String.concat ", " l in
      Format.fprintf ppf "    effect reads: %s@." (set ad.ad_reads);
      Format.fprintf ppf "    effect writes: %s@." (set ad.ad_writes);
      List.iter
        (fun cd ->
          Format.fprintf ppf "    case %d:%s@." cd.cd_index
            (if cd.cd_float then " [float writes]" else "");
          List.iter
            (fun row -> Format.fprintf ppf "      delta %a@." pp_row row)
            cd.cd_rows;
          match cd.cd_unresolved with
          | [] -> ()
          | l ->
              Format.fprintf ppf "      unresolved: %s@."
                (String.concat ", " l))
        ad.ad_cases)
    t.activities

let to_json t =
  let open Report.Json in
  let strs l = Arr (List.map (fun s -> Str s) l) in
  Obj
    [
      ("schema", Str "itua-analysis/1");
      ("model", Str t.model);
      ( "activities",
        Arr
          (List.map
             (fun ad ->
               Obj
                 [
                   ("name", Str ad.ad_name);
                   ("timing", Str ad.ad_timing);
                   ("guard_reads", strs ad.ad_guard_reads);
                   ("effect_reads", strs ad.ad_reads);
                   ("effect_writes", strs ad.ad_writes);
                   ( "cases",
                     Arr
                       (List.map
                          (fun cd ->
                            Obj
                              [
                                ("case", int cd.cd_index);
                                ("float_writes", Bool cd.cd_float);
                                ( "deltas",
                                  Arr
                                    (List.map
                                       (fun row ->
                                         Obj
                                           (List.map
                                              (fun (p, d) -> (p, int d))
                                              row))
                                       cd.cd_rows) );
                                ("unresolved", strs cd.cd_unresolved);
                              ])
                          ad.ad_cases) );
                 ])
             t.activities) );
    ]
