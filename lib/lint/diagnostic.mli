(** Lint findings: a source position, the rule id that fired, and a
    human-readable message. *)

type t = {
  file : string;
  line : int;  (** 1-based *)
  col : int;   (** 0-based, matching compiler convention *)
  rule : string;
  message : string;
}

(** Build a diagnostic from a compiler [Location.t] (start position). *)
val make : file:string -> loc:Location.t -> rule:string -> string -> t

(** Order by file, then line, column, rule, message — the report order.
    Only exact duplicates compare equal. *)
val compare : t -> t -> int

(** [file:line:col [rule-id] message] — one line, no trailing newline. *)
val to_text : t -> string

(** One finding as a GitHub Actions [::warning] workflow command, so
    CI findings annotate the PR diff inline. Columns are converted to
    GitHub's 1-based convention; [%], newlines and property separators
    are escaped per the workflow-command rules. *)
val to_github : t -> string

(** A string's JSON escaping, without the surrounding quotes: quote,
    backslash, newline, tab and carriage return as their short escapes,
    any other control byte as a four-hex-digit unicode escape. *)
val json_escape : string -> string

(** One finding as a JSON object. *)
val to_json : t -> string

(** A findings list as a JSON array. *)
val list_to_json : t list -> string
