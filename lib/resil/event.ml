(* Fault timeline: a time-sorted schedule of typed events driving the
   resilience playout (TON'16 robustness evaluation of the CoNEXT'10
   placement paper: VHO failures, link failures, demand surges). The
   schedule is data — replayable from CSV, diffable, and generated
   deterministically from an integer seed. *)

type kind =
  | Vho_down of int
  | Vho_up of int
  | Link_down of int          (* directed link id *)
  | Link_up of int
  | Surge_start of { vho : int; factor : float }  (* demand multiplier *)
  | Surge_end of int

type t = {
  time_s : float;
  kind : kind;
}

type schedule = t array

let empty : schedule = [||]

let kind_to_string = function
  | Vho_down v -> Printf.sprintf "vho_down,%d" v
  | Vho_up v -> Printf.sprintf "vho_up,%d" v
  | Link_down l -> Printf.sprintf "link_down,%d" l
  | Link_up l -> Printf.sprintf "link_up,%d" l
  | Surge_start { vho; factor } -> Printf.sprintf "surge_start,%d,%g" vho factor
  | Surge_end v -> Printf.sprintf "surge_end,%d" v

(* Why an event cannot be scheduled at all, if it cannot. *)
let value_error e =
  if not (Float.is_finite e.time_s) || e.time_s < 0.0 then
    Some "event times must be finite and non-negative"
  else
    match e.kind with
    | Surge_start { factor; _ } when not (Float.is_finite factor) || factor <= 0.0 ->
        Some "surge factor must be finite and positive"
    | _ -> None

(* Why an event does not fit a topology, if it does not. *)
let id_error ~n_vhos ~n_links e =
  let outside what id n =
    if id < 0 || id >= n then Some (Printf.sprintf "%s %d outside [0, %d)" what id n)
    else None
  in
  match e.kind with
  | Vho_down v | Vho_up v | Surge_end v | Surge_start { vho = v; _ } ->
      outside "VHO" v n_vhos
  | Link_down l | Link_up l -> outside "link" l n_links

(* Sort events by time, stably, so same-time events keep their authored
   order (down-before-up at the same instant is meaningful). *)
let sort events =
  let tagged = Array.mapi (fun i e -> (i, e)) (Array.of_list events) in
  Array.sort
    (fun (i, a) (j, b) ->
      let c = Float.compare a.time_s b.time_s in
      if c <> 0 then c else Int.compare i j)
    tagged;
  Array.map snd tagged

let create events =
  List.iter
    (fun e -> Option.iter (fun m -> invalid_arg ("Event.create: " ^ m)) (value_error e))
    events;
  sort events

let length (s : schedule) = Array.length s

(* Bounds-check every referenced VHO and link id against a topology. *)
let validate (s : schedule) ~n_vhos ~n_links =
  Array.iter
    (fun e ->
      Option.iter
        (fun m -> invalid_arg ("Event.validate: " ^ m))
        (id_error ~n_vhos ~n_links e))
    s

(* ---------- CSV schedule format ----------

   One event per line, `#` comments and blank lines ignored:

     time_s,event,args
     3600.000,vho_down,12
     7200.000,vho_up,12
     100.000,surge_start,5,3.5
     400.000,surge_end,5
*)

let header = "time_s,event,args"

let save_csv (s : schedule) path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (header ^ "\n");
      Array.iter
        (fun e -> Printf.fprintf oc "%.3f,%s\n" e.time_s (kind_to_string e.kind))
        s)

(* One record, checked as it is parsed: a malformed line, a time or
   surge factor out of range, or an id outside the topology is an error
   naming the line. *)
let parse_line ~lineno ~n_vhos ~n_links line =
  let fail what =
    invalid_arg (Printf.sprintf "Event.load_csv: %s on line %d" what lineno)
  in
  let bad () = fail "bad record" in
  let e =
    match String.split_on_char ',' line with
    | time :: event :: args ->
        let time_s = try float_of_string time with Failure _ -> bad () in
        let int_arg s = try int_of_string (String.trim s) with Failure _ -> bad () in
        let kind =
          match (String.trim event, args) with
          | "vho_down", [ v ] -> Vho_down (int_arg v)
          | "vho_up", [ v ] -> Vho_up (int_arg v)
          | "link_down", [ l ] -> Link_down (int_arg l)
          | "link_up", [ l ] -> Link_up (int_arg l)
          | "surge_start", [ v; f ] ->
              let factor =
                try float_of_string (String.trim f) with Failure _ -> bad ()
              in
              Surge_start { vho = int_arg v; factor }
          | "surge_end", [ v ] -> Surge_end (int_arg v)
          | _ -> bad ()
        in
        { time_s; kind }
    | _ -> bad ()
  in
  Option.iter fail (value_error e);
  Option.iter fail (id_error ~n_vhos ~n_links e);
  e

let load_csv ~n_vhos ~n_links path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let events = ref [] in
      let lineno = ref 0 in
      (try
         while true do
           incr lineno;
           let line = String.trim (input_line ic) in
           if
             line <> ""
             && line.[0] <> '#'
             && not (!lineno = 1 && line = header)
           then events := parse_line ~lineno:!lineno ~n_vhos ~n_links line :: !events
         done
       with End_of_file -> ());
      sort (List.rev !events))

(* ---------- seeded generator ---------- *)

type gen_params = {
  n_vhos : int;
  n_links : int;
  horizon_s : float;
  seed : int;
}

let default_gen_params ~n_vhos ~n_links ~horizon_s ~seed =
  { n_vhos; n_links; horizon_s; seed }

(* Two VHO outages, two directed-link outages and one threefold surge:
   each a down/up (or start/end) pair with a uniform start over the
   horizon and an exponential duration, of mean horizon/10 for outages
   and horizon/20 for the surge, clipped to the horizon. Draw order is
   fixed, so the schedule depends only on the params. *)
let generate (p : gen_params) : schedule =
  if p.horizon_s <= 0.0 || not (Float.is_finite p.horizon_s) then
    invalid_arg "Event.generate: horizon must be finite and positive";
  if p.n_vhos <= 0 then invalid_arg "Event.generate: need at least one VHO";
  if p.n_links <= 0 then invalid_arg "Event.generate: need at least one link";
  let rng = Vod_util.Rng.create p.seed in
  let events = ref [] in
  let pair ~mean_s mk_down mk_up =
    let t0 = Vod_util.Rng.float rng *. p.horizon_s in
    let dur = Vod_util.Rng.exponential rng ~rate:(1.0 /. mean_s) in
    let t1 = Float.min p.horizon_s (t0 +. dur) in
    events := { time_s = t1; kind = mk_up } :: { time_s = t0; kind = mk_down } :: !events
  in
  let mean_outage_s = p.horizon_s /. 10.0 in
  for _ = 1 to 2 do
    let v = Vod_util.Rng.int rng p.n_vhos in
    pair ~mean_s:mean_outage_s (Vho_down v) (Vho_up v)
  done;
  for _ = 1 to 2 do
    let l = Vod_util.Rng.int rng p.n_links in
    pair ~mean_s:mean_outage_s (Link_down l) (Link_up l)
  done;
  let v = Vod_util.Rng.int rng p.n_vhos in
  pair ~mean_s:(p.horizon_s /. 20.0)
    (Surge_start { vho = v; factor = 3.0 })
    (Surge_end v);
  create (List.rev !events)
