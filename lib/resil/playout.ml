(* The resilience configuration of the serving loop (Vod_serve.Loop): a
   fault timeline, a uniform link budget and an optional origin, plus the
   per-event-window serving deltas a faulted run reports. *)

type config = {
  schedule : Event.schedule;
  link_capacity_mbps : float;   (* uniform per directed link; infinity = off *)
  origin : int option;          (* last-resort full-library VHO *)
}

let config ?(schedule = Event.empty) ?(link_capacity_mbps = Float.infinity)
    ?origin () =
  { schedule; link_capacity_mbps; origin }

let validate cfg ~n_vhos ~n_links =
  Event.validate cfg.schedule ~n_vhos ~n_links;
  match cfg.origin with
  | Some o when o < 0 || o >= n_vhos ->
      invalid_arg
        (Printf.sprintf "Playout.validate: origin %d outside [0, %d)" o n_vhos)
  | Some _ | None -> ()

(* Per-event-window serving deltas: one window per applied event (plus
   the leading fault-free window), so a report can show how much each
   outage or repair cost. *)
type window = {
  t0_s : float;
  t1_s : float;
  trigger : string;    (* "start" or the event that opened the window *)
  requests : int;
  rejections : int;
  failovers : int;
}
