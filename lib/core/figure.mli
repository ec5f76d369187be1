(** One table or figure of the evaluation as a value: title lines,
    columns, rows of typed cells and summary lines, rendered by one
    printer. Every driver in {!Experiments} returns one. *)

type align =
  | Left
  | Right

type column =
  { header : string
  ; width : int  (** a cell shorter than this is padded to it *)
  ; align : align
  }

val left : string -> int -> column
val right : string -> int -> column

type cell =
  | Text of string
  | Int of int
  | Float of float * int  (** value, decimals *)

type t = private
  { title : string list
  ; columns : column list
  ; rows : cell list list
  ; summary : string list  (** free lines after the rows *)
  }

val make : ?summary:string list -> title:string list -> column list -> cell list list -> t
(** @raise Invalid_argument on a row whose cell count is not the
    column count. *)

val pp : Format.formatter -> t -> unit
(** The title lines; the header line; one line per row, its cells
    padded to their columns' widths and joined by a space; then the
    summary lines. A figure whose headers are all empty is a list: it
    has no header line and its rows are indented by two spaces. *)
