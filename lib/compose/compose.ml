type node = {
  label : string;
  kind : kind;
  mutable children : node list;  (* reversed *)
  mutable node_places : San.Place.any list;  (* reversed *)
  mutable node_activities : string list;  (* reversed *)
  mutable node_params : (string * string) list;  (* reversed *)
}

and kind = Root | Rep of int | Join_branch

module Ctx = struct
  type t = { b : San.Model.Builder.t; path : string list; node : node }

  let make_node label kind =
    {
      label;
      kind;
      children = [];
      node_places = [];
      node_activities = [];
      node_params = [];
    }

  let root b name = { b; path = []; node = make_node name Root }

  let builder ctx = ctx.b

  let path ctx = String.concat "." (List.rev ctx.path)

  let qualify ctx s =
    match ctx.path with [] -> s | _ -> path ctx ^ "." ^ s

  let int_place ctx ?init s =
    let p = San.Model.Builder.int_place ctx.b ?init (qualify ctx s) in
    ctx.node.node_places <- San.Place.P p :: ctx.node.node_places;
    p

  let float_place ctx ?init s =
    let p = San.Model.Builder.float_place ctx.b ?init (qualify ctx s) in
    ctx.node.node_places <- San.Place.F p :: ctx.node.node_places;
    p

  let activity ctx s =
    let name = qualify ctx s in
    ctx.node.node_activities <- name :: ctx.node.node_activities;
    name

  let note ctx key value =
    if List.mem_assoc key ctx.node.node_params then
      invalid_arg
        (Printf.sprintf "Compose.Ctx.note: duplicate parameter %S" key);
    ctx.node.node_params <- (key, value) :: ctx.node.node_params

  let timed_exp_rate_ir ctx ~name ?policy ?reads:_ ~rate ~guard effect =
    San.Model.Builder.timed_exp_rate_ir ctx.b ~name:(activity ctx name)
      ?policy ~rate ~guard effect

  let child ctx label kind =
    let node = make_node label kind in
    ctx.node.children <- node :: ctx.node.children;
    { b = ctx.b; path = label :: ctx.path; node }
end

let replicate ctx label ~n build =
  if n <= 0 then invalid_arg "Compose.replicate: n must be >= 1";
  Array.init n (fun i ->
      let child = Ctx.child ctx (Printf.sprintf "%s[%d]" label i) (Rep n) in
      build child i)

let join ctx label build = build (Ctx.child ctx label Join_branch)

type info = {
  path : string;
  label : string;
  rep_copies : int option;
  places : San.Place.any list;
  activities : string list;
  params : (string * string) list;
  children : info list;
}

let info ctx =
  let rec of_node rev_path node =
    let rev_path =
      match node.kind with Root -> rev_path | _ -> node.label :: rev_path
    in
    {
      path = String.concat "." (List.rev rev_path);
      label = node.label;
      rep_copies = (match node.kind with Rep n -> Some n | _ -> None);
      places = List.rev node.node_places;
      activities = List.rev node.node_activities;
      params = List.rev node.node_params;
      children = List.rev_map (of_node rev_path) node.children;
    }
  in
  of_node [] ctx.Ctx.node

(* The family of a Rep copy label: ["app[3]"] belongs to ["app"]. *)
let fam_of label =
  match String.index_opt label '[' with
  | Some i -> String.sub label 0 i
  | None -> label

let rep_families (n : info) =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (c : info) ->
      if c.rep_copies <> None then begin
        let f = fam_of c.label in
        if not (Hashtbl.mem tbl f) then begin
          Hashtbl.add tbl f [];
          order := f :: !order
        end;
        Hashtbl.replace tbl f (c :: Hashtbl.find tbl f)
      end)
    n.children;
  List.rev_map (fun f -> (f, List.rev (Hashtbl.find tbl f))) !order

(* Render from the [info] snapshot so a tree parsed back from disk
   ([Serial]) prints identically to one built in-process. *)
let render_info (top : info) =
  let buf = Buffer.create 256 in
  let rec render indent ~root (n : info) =
    let prefix = String.make indent ' ' in
    let suffix =
      if root then ""
      else
        match n.rep_copies with
        | Some c -> Printf.sprintf " (Rep, %d copies)" c
        | None -> " (Join branch)"
    in
    Buffer.add_string buf (prefix ^ n.label ^ suffix ^ "\n");
    (* Collapse structurally identical Rep siblings: print the first copy
       of each label family and note the count. *)
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (c : info) ->
        match c.rep_copies with
        | Some _ when Hashtbl.mem seen (fam_of c.label) -> ()
        | Some _ ->
            Hashtbl.add seen (fam_of c.label) ();
            render (indent + 2) ~root:false c
        | None -> render (indent + 2) ~root:false c)
      n.children
  in
  render 0 ~root:true top;
  Buffer.contents buf

let structure ctx = render_info (info ctx)
