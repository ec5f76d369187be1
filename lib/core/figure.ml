type align =
  | Left
  | Right

type column =
  { header : string
  ; width : int
  ; align : align
  }

let left header width = { header; width; align = Left }
let right header width = { header; width; align = Right }

type cell =
  | Text of string
  | Int of int
  | Float of float * int

type t =
  { title : string list
  ; columns : column list
  ; rows : cell list list
  ; summary : string list
  }

let make ?(summary = []) ~title columns rows =
  let n = List.length columns in
  List.iter
    (fun row ->
       if List.length row <> n then
         invalid_arg
           (Printf.sprintf "Figure.make: %s: a row of %d cells under %d columns"
              (String.concat " / " title) (List.length row) n))
    rows;
  { title; columns; rows; summary }

let text = function
  | Text s -> s
  | Int n -> string_of_int n
  | Float (x, decimals) -> Printf.sprintf "%.*f" decimals x

let pad c s =
  match c.align with
  | Left -> Printf.sprintf "%-*s" c.width s
  | Right -> Printf.sprintf "%*s" c.width s

let pp fmt t =
  let line s = Format.fprintf fmt "%s@." s in
  let is_list = List.for_all (fun c -> c.header = "") t.columns in
  let indent = if is_list then "  " else "" in
  List.iter line t.title;
  if not is_list then
    line (String.concat " " (List.map (fun c -> pad c c.header) t.columns));
  List.iter
    (fun row ->
       line (indent ^ String.concat " " (List.map2 (fun c x -> pad c (text x)) t.columns row)))
    t.rows;
  List.iter line t.summary
