type point = {
  measure : string;
  n : int;
  value : float;
  half_width : float;
  confidence : float;
}

type t = { mutable pts : point list (* newest first *) }

let create () = { pts = [] }

let record ?(half_width = nan) ?(confidence = nan) t ~measure ~n ~value =
  t.pts <- { measure; n; value; half_width; confidence } :: t.pts

let points t = List.rev t.pts

let num_or_null v =
  if Float.is_finite v then Report.Json.Num v else Report.Json.Null

let to_json t =
  let module J = Report.Json in
  J.Arr
    (List.map
       (fun p ->
         J.Obj
           [
             ("measure", J.Str p.measure);
             ("n", J.int p.n);
             ("value", num_or_null p.value);
             ("half_width", num_or_null p.half_width);
             ("confidence", num_or_null p.confidence);
           ])
       (points t))
