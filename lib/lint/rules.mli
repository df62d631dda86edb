(** The vodlint rule registry.

    Rules are syntactic heuristics over the untyped parsetree, each
    enforcing one solver-safety invariant (see DESIGN.md, "Static
    analysis"). They can be individually disabled on the command line
    and suppressed per-line with [(* vodlint-disable rule-id *)]. *)

(** Per-file context a rule can condition on. *)
type ctx = {
  path : string;       (** path used in diagnostics *)
  in_lib : bool;       (** file lives under lib/ *)
  in_div_scope : bool; (** file lives under lib/epf/ or lib/lp/ *)
  on_disk : bool;      (** false when linting an in-memory snippet *)
}

type ast = Impl of Parsetree.structure | Intf of Parsetree.signature

type t = {
  id : string;      (** stable rule id, e.g. ["poly-compare"] *)
  doc : string;     (** one-line description for [--rules] *)
  check : ctx -> ast -> Diagnostic.t list;
}

(** All rules, in reporting order. *)
val all : t list

(** Look a rule up by id. *)
val find : string -> t option
