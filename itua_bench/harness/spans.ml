type span = {
  id : int;
  parent : int;
  layer : string;
  name : string;
  start_ns : int64;
  dur_ns : int64;
}

type t = {
  on : bool;
  t0 : int64;
  mutable next_id : int;
  mutable stack : int list;
  mutable done_ : span list;
}

let off = { on = false; t0 = 0L; next_id = 0; stack = []; done_ = [] }

let create () =
  { on = true; t0 = Obs.Clock.now_ns (); next_id = 0; stack = []; done_ = [] }

let span t ~layer name f =
  if not t.on then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start_ns = Obs.Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let dur_ns = Int64.sub (Obs.Clock.now_ns ()) start_ns in
        t.stack <- List.tl t.stack;
        t.done_ <- { id; parent; layer; name; start_ns; dur_ns } :: t.done_)
      f
  end

let spans t = List.sort (fun a b -> compare a.id b.id) t.done_

let self_ns spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Int64.add s.dur_ns
             (Option.value (Hashtbl.find_opt child s.parent) ~default:0L)))
    spans;
  List.map
    (fun s ->
      ( s,
        Int64.sub s.dur_ns
          (Option.value (Hashtbl.find_opt child s.id) ~default:0L) ))
    spans

let root_of spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec up s =
    if s.parent < 0 then s
    else
      match Hashtbl.find_opt by_id s.parent with
      | Some p -> up p
      | None -> s
  in
  up

let layer_self_seconds spans ~root_layer =
  let root = root_of spans in
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      if (root s).layer = root_layer then
        Hashtbl.replace acc s.layer
          (Obs.Clock.ns_to_s self
          +. Option.value (Hashtbl.find_opt acc s.layer) ~default:0.0))
    (self_ns spans);
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

let root_seconds spans ~root_layer =
  List.fold_left
    (fun acc s ->
      if s.parent < 0 && s.layer = root_layer then
        acc +. Obs.Clock.ns_to_s s.dur_ns
      else acc)
    0.0 spans

let nested spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  List.for_all
    (fun s ->
      s.parent < 0
      ||
      match Hashtbl.find_opt by_id s.parent with
      | None -> false
      | Some p ->
          Int64.compare p.start_ns s.start_ns <= 0
          && Int64.compare
               (Int64.add s.start_ns s.dur_ns)
               (Int64.add p.start_ns p.dur_ns)
             <= 0)
    spans

let to_chrome t =
  let module J = Report.Json in
  List.map
    (fun s ->
      J.Obj
        [
          ("name", J.Str s.name);
          ("cat", J.Str s.layer);
          ("ph", J.Str "X");
          ("ts", J.Num (Int64.to_float (Int64.sub s.start_ns t.t0) /. 1e3));
          ("dur", J.Num (Int64.to_float s.dur_ns /. 1e3));
          ("pid", J.int 0);
          ("tid", J.int 0);
          ("args", J.Obj [ ("id", J.int s.id); ("parent", J.int s.parent) ]);
        ])
    (spans t)
