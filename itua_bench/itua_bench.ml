(* The ITUA benchmark harness: see README.md in this directory.

   itua_bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
   itua_bench compare PARENT.jsonl CHANGE.jsonl *)

open Itua_harness

let usage () =
  prerr_endline
    "usage: itua_bench --workload W [--seed N] [--seconds S] [--trace 0|1] \
     [--out FILE]\n\
    \       itua_bench compare PARENT.jsonl CHANGE.jsonl\n\
     workloads:";
  List.iter
    (fun (w : Workloads.t) -> Printf.eprintf "  %-12s %s\n" w.name w.why)
    Workloads.all;
  exit 2

let read_jsonl path =
  match Report.read_jsonl path with
  | Ok lines -> lines
  | Error e ->
      prerr_endline e;
      exit 2

let compare parent change =
  let bounds =
    match
      Result.bind
        (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
        |> Report.Json.of_string)
        Compare.bounds_of_benchmark
    with
    | Ok b -> b
    | Error e ->
        prerr_endline ("BENCHMARK.json: " ^ e);
        exit 2
  in
  let samples path = Compare.samples_of_results (read_jsonl path) in
  let rows =
    Compare.compare ~bounds ~parent:(samples parent) ~change:(samples change)
  in
  print_endline Compare.header;
  List.iter (fun r -> Format.printf "%a@." Compare.pp_row r) rows;
  if
    rows = []
    || List.exists
         (fun r ->
           r.Compare.verdict = Compare.Regression
           || r.Compare.verdict = Compare.Too_few)
         rows
  then exit 1

let run args =
  let workload = ref None
  and seed = ref 20030622L
  and seconds = ref 20.0
  and trace = ref false
  and out = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Workloads.find w;
        if !workload = None then usage ();
        parse rest
    | "--seed" :: s :: rest ->
        (match Int64.of_string_opt s with
        | Some v -> seed := v
        | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some v when v >= 0.0 -> seconds := v
        | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        parse rest
    | "--out" :: f :: rest ->
        out := Some f;
        parse rest
    | _ -> usage ()
  in
  parse args;
  let w = match !workload with Some w -> w | None -> usage () in
  let r, spans = Run.run w ~seed:!seed ~seconds:!seconds ~trace:!trace in
  Option.iter (fun path -> Run.write_trace path r spans) !out;
  Run.print r;
  if Run.failed r <> [] then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; parent; change ] -> compare parent change
  | args -> run args
