type event =
  | Host_intrusion of { domain : int; host : int; klass : string; time : float }
  | Host_detected of { domain : int; host : int; time : float }
  | Host_missed of { domain : int; host : int; time : float }
  | Manager_corrupted of { domain : int; host : int; time : float }
  | Manager_detected of { domain : int; host : int; time : float }
  | Replica_corrupted of { app : int; replica : int; time : float }
  | Replica_convicted of { app : int; replica : int; time : float }
  | Host_excluded of { domain : int; host : int; time : float }
  | Domain_excluded of {
      domain : int;
      corrupt : int;
      hosts : int;
      time : float;
    }
  | Recovery of { app : int; time : float }
  | App_improper of { app : int; corrupt : int; running : int; time : float }
  | App_starved of { app : int; time : float }

type chain = {
  rep : int;
  matched : bool;
  horizon : float;
  events : event list;
  time_to_failure : float option;
}

(* Name-pattern matching against the model's composed place names.
   sscanf raises on mismatch; [scan] turns that into an option. *)
let scan name fmt f =
  try Some (Scanf.sscanf name fmt f)
  with Scanf.Scan_failure _ | End_of_file | Failure _ -> None

let attack_class v =
  if v = 1.0 then "script"
  else if v = 2.0 then "exploratory"
  else if v = 3.0 then "innovative"
  else Printf.sprintf "class %g" v

let chain_of_trajectory (t : Sim.Trajectory.t) =
  let state : (string, float) Hashtbl.t = Hashtbl.create 256 in
  let get name = Option.value (Hashtbl.find_opt state name) ~default:0.0 in
  let set name v = Hashtbl.replace state name v in
  List.iter (fun (c : Sim.Trajectory.change) -> set c.place c.value) t.init;
  let events = ref [] in
  let emit e = events := e :: !events in
  let app_place a field = Printf.sprintf "apps.app[%d].%s" a field in
  List.iter
    (fun (s : Sim.Trajectory.step) ->
      let time = s.time in
      (* Apply the whole step first: each changed place appears once with
         its post-firing value, and derived numbers (quorum counts,
         exclusion tallies) should reflect the post-step state. *)
      let changed =
        List.map
          (fun (c : Sim.Trajectory.change) ->
            let old = get c.place in
            set c.place c.value;
            (c.place, old, c.value))
          s.changes
      in
      let delta name =
        match List.find_opt (fun (n, _, _) -> n = name) changed with
        | Some (_, old, v) -> int_of_float (v -. old)
        | None -> 0
      in
      (match scan s.activity "apps.app[%d].recovery%!" (fun a -> a) with
      | Some a -> emit (Recovery { app = a; time })
      | None -> ());
      List.iter
        (fun (name, old, v) ->
          let rose = old = 0.0 && v > 0.0 in
          match
            scan name "security_domains.domain[%d].host[%d].%s" (fun d h f ->
                (d, h, f))
          with
          | Some (domain, host, field) -> (
              match field with
              | "attacked" when rose ->
                  emit
                    (Host_intrusion
                       { domain; host; klass = attack_class v; time })
              | "host_detected" when rose ->
                  emit (Host_detected { domain; host; time })
              | "host_id_missed" when rose ->
                  emit (Host_missed { domain; host; time })
              | "mgr_corrupt" when rose ->
                  emit (Manager_corrupted { domain; host; time })
              | "mgr_detected" when rose ->
                  emit (Manager_detected { domain; host; time })
              | "alive" when old > 0.0 && v = 0.0 ->
                  emit (Host_excluded { domain; host; time })
              | _ -> ())
          | None -> (
              match
                scan name "security_domains.domain[%d].%s" (fun d f -> (d, f))
              with
              | Some (domain, "excluded") when rose ->
                  (* The exclusion effect updates the measure accumulators
                     in the same firing; their same-step deltas are this
                     exclusion's tallies. *)
                  emit
                    (Domain_excluded
                       {
                         domain;
                         corrupt = delta "excluded_corrupt_hosts";
                         hosts = delta "excluded_hosts";
                         time;
                       })
              | Some _ -> ()
              | None -> (
                  match
                    scan name "apps.app[%d].replica[%d].%s" (fun a r f ->
                        (a, r, f))
                  with
                  | Some (app, replica, "corrupt") when rose ->
                      emit (Replica_corrupted { app; replica; time })
                  | Some (app, replica, "convicted") when rose ->
                      emit (Replica_convicted { app; replica; time })
                  | Some _ -> ()
                  | None -> (
                      match scan name "apps.app[%d].%s" (fun a f -> (a, f)) with
                      | Some (app, "rep_grp_failure") when rose ->
                          emit
                            (App_improper
                               {
                                 app;
                                 corrupt =
                                   int_of_float
                                     (get (app_place app "rep_corr_undetected"));
                                 running =
                                   int_of_float
                                     (get (app_place app "replicas_running"));
                                 time;
                               })
                      | Some (app, "replicas_running")
                        when old > 0.0 && v = 0.0 ->
                          emit (App_starved { app; time })
                      | _ -> ()))))
        changed)
    t.steps;
  let events = List.rev !events in
  let time_to_failure =
    List.find_map
      (function
        | App_improper { time; _ } | App_starved { time; _ } -> Some time
        | _ -> None)
      events
  in
  { rep = t.rep; matched = t.matched; horizon = t.horizon; events;
    time_to_failure }

type summary = {
  chains : int;
  failed : int;
  ttf_mean : float;
  ttf_min : float;
  ttf_max : float;
}

let summarize chains =
  let ttfs = List.filter_map (fun c -> c.time_to_failure) chains in
  let n = List.length ttfs in
  let fold f = function [] -> Float.nan | x :: rest -> List.fold_left f x rest in
  {
    chains = List.length chains;
    failed = n;
    ttf_mean =
      (if n = 0 then Float.nan
       else List.fold_left ( +. ) 0.0 ttfs /. float_of_int n);
    ttf_min = fold Float.min ttfs;
    ttf_max = fold Float.max ttfs;
  }

let failed_now (h : Model.handles) m =
  let napps = h.Model.params.Params.num_apps in
  let rec go a = a < napps && (Model.improper h a m || go (a + 1)) in
  go 0

let pp_event ppf = function
  | Host_intrusion { domain; host; klass; time } ->
      Format.fprintf ppf "host d%d.h%d intruded (%s) @%.2fh" domain host klass
        time
  | Host_detected { domain; host; time } ->
      Format.fprintf ppf "intrusion on host d%d.h%d detected @%.2fh" domain
        host time
  | Host_missed { domain; host; time } ->
      Format.fprintf ppf "intrusion on host d%d.h%d missed by IDS @%.2fh"
        domain host time
  | Manager_corrupted { domain; host; time } ->
      Format.fprintf ppf "manager on d%d.h%d corrupted @%.2fh" domain host time
  | Manager_detected { domain; host; time } ->
      Format.fprintf ppf "manager corruption on d%d.h%d detected @%.2fh" domain
        host time
  | Replica_corrupted { app; replica; time } ->
      Format.fprintf ppf "app %d replica %d corrupted @%.2fh" app replica time
  | Replica_convicted { app; replica; time } ->
      Format.fprintf ppf "app %d replica %d convicted @%.2fh" app replica time
  | Host_excluded { domain; host; time } ->
      Format.fprintf ppf "host d%d.h%d shut down @%.2fh" domain host time
  | Domain_excluded { domain; corrupt; hosts; time } ->
      Format.fprintf ppf "domain %d excluded (%d/%d hosts corrupt) @%.2fh"
        domain corrupt hosts time
  | Recovery { app; time } ->
      Format.fprintf ppf "app %d recovery @%.2fh" app time
  | App_improper { app; corrupt; running; time } ->
      Format.fprintf ppf "app %d improper (%d corrupt of %d running) @%.2fh"
        app corrupt running time
  | App_starved { app; time } ->
      Format.fprintf ppf "app %d starved @%.2fh" app time

let pp_chain ppf c =
  let label =
    match c.time_to_failure with
    | Some t -> Printf.sprintf "failed @%.2fh" t
    | None -> if c.matched then "matched" else "no failure"
  in
  Format.fprintf ppf "@[<hov 2>rep %d (%s):" c.rep label;
  if c.events = [] then Format.fprintf ppf " no notable events"
  else
    List.iteri
      (fun i e ->
        if i > 0 then Format.fprintf ppf " \xe2\x86\x92@ " else
          Format.fprintf ppf "@ ";
        pp_event ppf e)
      c.events;
  Format.fprintf ppf "@]"

let pp_summary ppf s =
  Format.fprintf ppf "@[<v>chains: %d (%d failed)@," s.chains s.failed;
  if s.failed > 0 then
    Format.fprintf ppf
      "time to failure: mean %.2fh, min %.2fh, max %.2fh@," s.ttf_mean
      s.ttf_min s.ttf_max;
  Format.fprintf ppf "@]"