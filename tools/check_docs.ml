(* Docs gate: keeps the markdown honest. Three checks, all strict:

   1. Every relative link and anchor in every *.md file of the repo
      resolves: the target file exists, and a #fragment names a real
      heading (GitHub slug rules, including duplicate -1/-2 suffixes)
      in the target.
   2. Every ```ocaml fenced snippet under doc/ appears, contiguously
      and whitespace-normalized, in examples/doc_snippets.ml — which
      the build compiles, so documented code cannot drift from the real
      API. A snippet line containing `...` is a wildcard matching any
      number of lines.
   3. Every ```json fenced snippet under doc/ parses with Report.Json
      (the parser behind the itua-model/2 and itua-analysis/1 formats),
      so documented JSON shapes cannot drift into invalid syntax.
      Snippets with a `...` elision line are skipped.

   Usage: dune exec tools/check_docs.exe [ROOT]   (default ROOT = .)
   Exits nonzero listing every failure; CI runs it on every push. *)

let failures = ref []

let fail file what = failures := Printf.sprintf "%s: %s" file what :: !failures

(* --- small helpers --- *)

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let trim = String.trim

(* Collapse every whitespace run to one space and trim the ends. *)
let normalize line =
  let b = Buffer.create (String.length line) in
  let pending = ref false in
  String.iter
    (fun c ->
      if c = ' ' || c = '\t' then pending := true
      else begin
        if !pending && Buffer.length b > 0 then Buffer.add_char b ' ';
        pending := false;
        Buffer.add_char b c
      end)
    line;
  Buffer.contents b

(* --- markdown parsing: headings, links, ocaml fences --- *)

(* GitHub heading slug: lowercase, drop everything but alphanumerics,
   hyphens, underscores and spaces, then spaces to hyphens. Duplicate
   slugs in one file get -1, -2, ... suffixes. Multibyte (non-ASCII)
   characters are dropped, which matches GitHub for the punctuation that
   appears in this repo's headings. *)
let slug_of_heading text =
  let b = Buffer.create (String.length text) in
  String.iter
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9' | '_' | '-') as c -> Buffer.add_char b c
      | ' ' -> Buffer.add_char b '-'
      | _ -> ())
    (trim text);
  Buffer.contents b

type doc = {
  lines : string list;
  slugs : (string, unit) Hashtbl.t;
  (* (line_number, target) of every markdown link outside code fences *)
  links : (int * string) list;
  (* ocaml fenced snippets: (first line number, lines) *)
  ocaml_snippets : (int * string list) list;
  (* json fenced snippets: (first line number, lines) *)
  json_snippets : (int * string list) list;
}

(* Link targets on one line: every `](target)` occurrence. *)
let link_targets line =
  let n = String.length line in
  let out = ref [] in
  let i = ref 0 in
  while !i + 1 < n do
    if line.[!i] = ']' && line.[!i + 1] = '(' then begin
      let j = ref (!i + 2) in
      while !j < n && line.[!j] <> ')' do incr j done;
      if !j < n then begin
        out := String.sub line (!i + 2) (!j - !i - 2) :: !out;
        i := !j
      end
    end;
    incr i
  done;
  List.rev !out

let parse_markdown path =
  let lines = read_lines path in
  let slugs = Hashtbl.create 16 in
  let slug_counts = Hashtbl.create 16 in
  let links = ref [] in
  let snippets = ref [] in
  let json_snips = ref [] in
  let in_fence = ref false in
  let fence_is_ocaml = ref false in
  let fence_is_json = ref false in
  let fence_buf = ref [] in
  let fence_start = ref 0 in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      if starts_with "```" (trim line) then begin
        if !in_fence then begin
          if !fence_is_ocaml then
            snippets := (!fence_start, List.rev !fence_buf) :: !snippets;
          if !fence_is_json then
            json_snips := (!fence_start, List.rev !fence_buf) :: !json_snips;
          in_fence := false
        end
        else begin
          in_fence := true;
          fence_is_ocaml := trim line = "```ocaml";
          fence_is_json := trim line = "```json";
          fence_buf := [];
          fence_start := lineno + 1
        end
      end
      else if !in_fence then begin
        if !fence_is_ocaml || !fence_is_json then
          fence_buf := line :: !fence_buf
      end
      else begin
        if starts_with "#" (trim line) then begin
          let text =
            let t = trim line in
            let i = ref 0 in
            while !i < String.length t && t.[!i] = '#' do incr i done;
            String.sub t !i (String.length t - !i)
          in
          let s = slug_of_heading text in
          let n =
            match Hashtbl.find_opt slug_counts s with
            | None -> 0
            | Some n -> n
          in
          Hashtbl.replace slug_counts s (n + 1);
          let s = if n = 0 then s else Printf.sprintf "%s-%d" s n in
          Hashtbl.replace slugs s ()
        end;
        List.iter
          (fun t -> links := (lineno, t) :: !links)
          (link_targets line)
      end)
    lines;
  {
    lines;
    slugs;
    links = List.rev !links;
    ocaml_snippets = List.rev !snippets;
    json_snippets = List.rev !json_snips;
  }

(* --- the checks --- *)

let doc_cache : (string, doc) Hashtbl.t = Hashtbl.create 32

let doc_of path =
  match Hashtbl.find_opt doc_cache path with
  | Some d -> d
  | None ->
      let d = parse_markdown path in
      Hashtbl.add doc_cache path d;
      d

let links_checked = ref 0

let check_link ~file (lineno, target) =
  let where what = fail file (Printf.sprintf "line %d: %s" lineno what) in
  let target = trim target in
  if
    target = "" || contains_sub target "://" || starts_with "mailto:" target
    || starts_with "<" target
  then ()
  else begin
    incr links_checked;
    let path, anchor =
      match String.index_opt target '#' with
      | None -> (target, None)
      | Some i ->
          ( String.sub target 0 i,
            Some (String.sub target (i + 1) (String.length target - i - 1)) )
    in
    let resolved =
      if path = "" then file else Filename.concat (Filename.dirname file) path
    in
    if not (Sys.file_exists resolved) then
      where (Printf.sprintf "broken link: %s (no such file)" path)
    else
      match anchor with
      | None -> ()
      | Some a ->
          if Filename.check_suffix resolved ".md" then begin
            let d = doc_of resolved in
            if not (Hashtbl.mem d.slugs a) then
              where
                (Printf.sprintf "broken anchor: %s#%s (no such heading)" path
                   a)
          end
  end

(* Snippet containment: every non-wildcard snippet line must appear in
   the mirror, in order, contiguously except across `...` lines. *)
let snippet_found ~mirror snippet =
  let wild l = contains_sub l "..." in
  let sn = Array.of_list snippet in
  let fl = Array.of_list mirror in
  let n = Array.length fl and m = Array.length sn in
  let rec go i j =
    if j = m then true
    else if wild sn.(j) then go i (j + 1) || (i < n && go (i + 1) j)
    else i < n && fl.(i) = sn.(j) && go (i + 1) (j + 1)
  in
  let rec from i = i <= n && (go i 0 || from (i + 1)) in
  from 0

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let md_files = ref [] in
  let rec walk dir =
    Array.iter
      (fun name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then begin
          if
            (not (starts_with "." name))
            && name <> "_build" && name <> "results" && name <> "node_modules"
          then walk path
        end
        else if Filename.check_suffix name ".md" then
          md_files := path :: !md_files)
      (Sys.readdir dir)
  in
  walk root;
  let md_files = List.sort compare !md_files in
  let mirror_path = Filename.concat root "examples/doc_snippets.ml" in
  let mirror =
    if Sys.file_exists mirror_path then
      read_lines mirror_path |> List.map normalize
      |> List.filter (fun l -> l <> "")
    else begin
      fail mirror_path "missing snippet mirror";
      []
    end
  in
  let snippets_checked = ref 0 in
  let json_checked = ref 0 in
  List.iter
    (fun file ->
      let d = doc_of file in
      List.iter (check_link ~file) d.links;
      (* Snippet mirroring and JSON validity are required for the doc/
         guides only. *)
      if Filename.basename (Filename.dirname file) = "doc" then begin
        List.iter
          (fun (lineno, snippet) ->
            let norm =
              List.map normalize snippet |> List.filter (fun l -> l <> "")
            in
            if norm <> [] then begin
              incr snippets_checked;
              if not (snippet_found ~mirror norm) then
                fail file
                  (Printf.sprintf
                     "line %d: ocaml snippet not mirrored in %s (edit one \
                      side to match the other)"
                     lineno mirror_path)
            end)
          d.ocaml_snippets;
        List.iter
          (fun (lineno, snippet) ->
            (* A `...` elision line marks a deliberately partial
               document; everything else must be valid JSON. *)
            if not (List.exists (fun l -> contains_sub l "...") snippet)
            then begin
              incr json_checked;
              match Report.Json.of_string (String.concat "\n" snippet) with
              | Ok _ -> ()
              | Error e ->
                  fail file
                    (Printf.sprintf "line %d: invalid json snippet: %s"
                       lineno e)
            end)
          d.json_snippets
      end)
    md_files;
  match List.rev !failures with
  | [] ->
      Printf.printf "docs check: %d markdown files, %d relative links, %d \
                     ocaml snippets, %d json snippets — OK\n"
        (List.length md_files) !links_checked !snippets_checked !json_checked
  | fs ->
      List.iter (fun f -> Printf.eprintf "%s\n" f) fs;
      Printf.eprintf "docs check: %d failure(s)\n" (List.length fs);
      exit 1
