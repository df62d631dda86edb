(** Aligned ASCII tables, used to re-emit every paper table/figure from the
    benchmark harness in a diff-friendly form. *)

type align = Left | Right

(** [render ~header rows] renders a markdown-style table. All rows must
    have the same arity as [header]; raises [Invalid_argument] otherwise. *)
val render : ?align:align -> header:string list -> string list list -> string

(** [print] is [render] followed by [print_string]. *)
val print : ?align:align -> header:string list -> string list list -> unit
