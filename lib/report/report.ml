type cell = Stats.Ci.t option

type table = {
  title : string;
  x_label : string;
  series : string list;
  mutable rows : (float * cell list) list;  (* reversed *)
}

let create ~title ~x_label ~series =
  if series = [] then invalid_arg "Report.create: no series";
  { title; x_label; series; rows = [] }

let add_row t ~x cells =
  if List.length cells <> List.length t.series then
    invalid_arg "Report.add_row: cell count does not match series";
  t.rows <- (x, cells) :: t.rows

let title t = t.title

let rows t = List.rev t.rows

let x_values t = List.map fst (rows t)

let value t ~x ~series =
  let cells = List.assoc x (rows t) in
  let rec find names cells =
    match (names, cells) with
    | n :: _, c :: _ when n = series -> c
    | _ :: names, _ :: cells -> find names cells
    | _ -> raise Not_found
  in
  find t.series cells

let pp_cell ppf = function
  | None -> Format.fprintf ppf "%14s" "-"
  | Some (ci : Stats.Ci.t) ->
      Format.fprintf ppf "%8.5f±%-5.3f" ci.Stats.Ci.mean ci.Stats.Ci.half_width

let pp_text ppf t =
  Format.fprintf ppf "%s@." t.title;
  Format.fprintf ppf "%10s" t.x_label;
  List.iter (fun s -> Format.fprintf ppf " %14s" s) t.series;
  Format.fprintf ppf "@.";
  List.iter
    (fun (x, cells) ->
      Format.fprintf ppf "%10g" x;
      List.iter (fun c -> Format.fprintf ppf " %a" pp_cell c) cells;
      Format.fprintf ppf "@.")
    (rows t)

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let pp_csv ppf t =
  Format.fprintf ppf "%s" (csv_escape t.x_label);
  List.iter
    (fun s ->
      Format.fprintf ppf ",%s,%s_halfwidth" (csv_escape s) (csv_escape s))
    t.series;
  Format.fprintf ppf "@.";
  List.iter
    (fun (x, cells) ->
      Format.fprintf ppf "%g" x;
      List.iter
        (fun c ->
          match c with
          | None -> Format.fprintf ppf ",,"
          | Some (ci : Stats.Ci.t) ->
              Format.fprintf ppf ",%.8g,%.8g" ci.Stats.Ci.mean
                ci.Stats.Ci.half_width)
        cells;
      Format.fprintf ppf "@.")
    (rows t)

let with_out_file path f =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  (try f ppf
   with e ->
     close_out_noerr oc;
     raise e);
  Format.pp_print_flush ppf ();
  close_out oc

let write_csv path t = with_out_file path (fun ppf -> pp_csv ppf t)

let pp_csv_rows ~header ppf rows =
  if header = [] then invalid_arg "Report.pp_csv_rows: empty header";
  let columns = List.length header in
  let pp_row ppf row =
    if List.length row <> columns then
      invalid_arg "Report.pp_csv_rows: row width does not match header";
    Format.fprintf ppf "%s@."
      (String.concat "," (List.map csv_escape row))
  in
  pp_row ppf header;
  List.iter (pp_row ppf) rows

let write_csv_rows path ~header rows =
  with_out_file path (fun ppf -> pp_csv_rows ~header ppf rows)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let int n = Num (float_of_int n)

  (* Deterministic float rendering: integral values print without a
     fraction, everything else with the shortest of %.15g/%.17g that
     round-trips through [float_of_string]. Determinism is load-bearing:
     trajectory JSONL is compared byte-for-byte across core counts. *)
  let float_to_string f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else
      let s = Printf.sprintf "%.15g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

  let escape_string b s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let rec emit b = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f ->
        (* JSON has no nan/infinity; null is the conventional stand-in. *)
        if Float.is_finite f then Buffer.add_string b (float_to_string f)
        else Buffer.add_string b "null"
    | Str s -> escape_string b s
    | Arr xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            emit b x)
          xs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            escape_string b k;
            Buffer.add_char b ':';
            emit b v)
          kvs;
        Buffer.add_char b '}'

  let to_string t =
    let b = Buffer.create 256 in
    emit b t;
    Buffer.contents b

  exception Parse_error of string

  let utf8_of_code b code =
    if code < 0x80 then Buffer.add_char b (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
    end

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg =
      raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
    in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected %C" c)
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" lit)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then fail "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char b '"'; incr pos
            | '\\' -> Buffer.add_char b '\\'; incr pos
            | '/' -> Buffer.add_char b '/'; incr pos
            | 'b' -> Buffer.add_char b '\b'; incr pos
            | 'f' -> Buffer.add_char b '\012'; incr pos
            | 'n' -> Buffer.add_char b '\n'; incr pos
            | 'r' -> Buffer.add_char b '\r'; incr pos
            | 't' -> Buffer.add_char b '\t'; incr pos
            | 'u' ->
                if !pos + 4 >= n then fail "truncated \\u escape";
                let hex = String.sub s (!pos + 1) 4 in
                let code =
                  match int_of_string_opt ("0x" ^ hex) with
                  | Some c -> c
                  | None -> fail "bad \\u escape"
                in
                (* Surrogate pairs are not recombined; our writer never
                   emits code points above U+001F as escapes. *)
                utf8_of_code b code;
                pos := !pos + 5
            | c -> fail (Printf.sprintf "bad escape \\%c" c));
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
      in
      go ();
      Buffer.contents b
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (members [])
          end
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            Arr []
          end
          else begin
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  elements (v :: acc)
              | Some ']' ->
                  incr pos;
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            Arr (elements [])
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') ->
          let start = !pos in
          while
            !pos < n
            &&
            match s.[!pos] with
            | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
            | _ -> false
          do
            incr pos
          done;
          let tok = String.sub s start (!pos - start) in
          (match float_of_string_opt tok with
          | Some f -> Num f
          | None -> fail (Printf.sprintf "bad number %S" tok))
      | Some c -> fail (Printf.sprintf "unexpected character %C" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
  let str = function Str s -> Some s | _ -> None
  let num = function Num f -> Some f | _ -> None
  let arr = function Arr xs -> Some xs | _ -> None
  let bool = function Bool b -> Some b | _ -> None

  (* Located decoding: every accessor takes the JSON-pointer-style path
     of the value it inspects, rooted at [$], and a failure names that
     path, what was expected and what was found. *)

  exception Decode_error of string

  let fail at fmt =
    Printf.ksprintf (fun s -> raise (Decode_error (at ^ ": " ^ s))) fmt

  let key at k = at ^ "." ^ k
  let idx at i = Printf.sprintf "%s[%d]" at i

  let short j =
    let s = to_string j in
    if String.length s > 60 then String.sub s 0 57 ^ "..." else s

  let get_obj at = function
    | Obj kvs -> kvs
    | j -> fail at "expected an object, got %s" (short j)

  let get_arr at = function
    | Arr l -> l
    | j -> fail at "expected an array, got %s" (short j)

  let get_str at = function
    | Str s -> s
    | j -> fail at "expected a string, got %s" (short j)

  let get_bool at = function
    | Bool b -> b
    | j -> fail at "expected a boolean, got %s" (short j)

  let get_num at = function
    | Num x -> x
    | j -> fail at "expected a number, got %s" (short j)

  let get_float at = function
    | Num x -> x
    | Null -> Float.nan
    | j -> fail at "expected a number or null, got %s" (short j)

  let get_int at = function
    | Num x when Float.is_integer x && Float.abs x <= 1e15 -> int_of_float x
    | j -> fail at "expected an integer, got %s" (short j)

  let get_list decode at j =
    List.mapi (fun i v -> decode (idx at i) v) (get_arr at j)

  let field decode at kvs k =
    match List.assoc_opt k kvs with
    | Some v -> decode (key at k) v
    | None -> fail (key at k) "missing field %S" k

  let opt_field decode at kvs k =
    Option.map (decode (key at k)) (List.assoc_opt k kvs)

  let decode f j = try Ok (f j) with Decode_error msg -> Error msg
end

let write_jsonl path lines =
  let oc = open_out path in
  (try
     List.iter
       (fun j ->
         output_string oc (Json.to_string j);
         output_char oc '\n')
       lines
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

let read_jsonl_numbered path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | "" -> go (lineno + 1) acc
        | line -> (
            match Json.of_string line with
            | Ok j -> go (lineno + 1) ((lineno, j) :: acc)
            | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e))
      in
      let r = go 1 [] in
      close_in_noerr ic;
      r

let read_jsonl path = Result.map (List.map snd) (read_jsonl_numbered path)
