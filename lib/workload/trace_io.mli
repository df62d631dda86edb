(** Trace import/export in a one-request-per-line CSV format
    ([time_s,vho,video]) so real request logs can drive the optimizer and
    synthetic traces can be exported for external replay. Both directions
    stream row by row against the store: no boxed request is ever
    materialized. *)

(** The CSV header line. *)
val header : string

(** Write a trace; overwrites [path]. *)
val save_csv : Trace.t -> string -> unit

(** Load and validate a trace, parsing line by line straight into a
    {!Trace.Builder}. Each row is checked as it is parsed: a malformed
    record, a video id outside [\[0, n_videos)], or a row
    {!Trace.row_error} rejects (VHO out of range, a time that is not
    finite or outside the horizon) raises [Invalid_argument] naming the
    line. Raises [Sys_error] if the file is unreadable. Sets the
    [mem/trace_store_bytes] gauge when metrics are on. *)
val load_csv : n_videos:int -> n_vhos:int -> days:int -> string -> Trace.t
