(** Fault timeline: typed, time-sorted schedules of VHO outages,
    directed-link failures and flash-crowd demand surges, replayable from
    CSV and generated deterministically from a seed (the TON'16
    robustness evaluation of the placement paper). *)

type kind =
  | Vho_down of int
  | Vho_up of int
  | Link_down of int  (** directed link id *)
  | Link_up of int
  | Surge_start of { vho : int; factor : float }
      (** demand multiplier for one VHO; last writer wins *)
  | Surge_end of int

type t = {
  time_s : float;  (** absolute seconds from trace start *)
  kind : kind;
}

(** A schedule is a time-sorted event array (stable for equal times). *)
type schedule = t array

(** The fault-free schedule. *)
val empty : schedule

(** Sort events into a schedule (stable on equal times, preserving the
    authored order). Raises [Invalid_argument] on non-finite or negative
    times, or non-positive surge factors. *)
val create : t list -> schedule

(** Number of events. *)
val length : schedule -> int

(** Bounds-check every referenced VHO and link id.
    Raises [Invalid_argument] naming the offending id. *)
val validate : schedule -> n_vhos:int -> n_links:int -> unit

(** [kind_to_string k] is the CSV tail of an event line, e.g.
    ["vho_down,12"]. *)
val kind_to_string : kind -> string

(** Write a schedule as CSV ([time_s,event,args]; one event per line). *)
val save_csv : schedule -> string -> unit

(** Load a CSV schedule for a topology of [n_vhos] VHOs and [n_links]
    directed links; [#] comments and blank lines are ignored. Each row
    is checked as it is parsed: a malformed record, a non-finite or
    negative time, a surge factor that is not finite and positive, or a
    VHO or link id outside the topology raises [Invalid_argument]
    naming the line. Raises [Sys_error] if the file is unreadable. *)
val load_csv : n_vhos:int -> n_links:int -> string -> schedule

(** The seeded generator's topology, horizon and seed. *)
type gen_params = {
  n_vhos : int;
  n_links : int;
  horizon_s : float;
  seed : int;
}

(** [{ n_vhos; n_links; horizon_s; seed }]. *)
val default_gen_params :
  n_vhos:int -> n_links:int -> horizon_s:float -> seed:int -> gen_params

(** Generate a schedule from the params; same params, same schedule. It
    holds two VHO outages, two directed-link outages and one threefold
    demand surge, each a down/up (or start/end) pair with a uniform
    start and an exponential duration clipped to the horizon: mean
    [horizon_s /. 10.] for an outage, [horizon_s /. 20.] for the surge.
    Raises [Invalid_argument] unless the horizon is finite and positive
    and the topology has a VHO and a link. *)
val generate : gen_params -> schedule
