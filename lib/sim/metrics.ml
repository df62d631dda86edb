(* Playout metrics: per-(directed link, 5-minute bin) average load plus
   request counters. A remote stream contributes its bitrate to every bin
   its playback overlaps, weighted by the overlap fraction — so a bin
   value is the link's average Mb/s over those 5 minutes, matching the
   paper's "maximum link usage measured every 5 min" (Fig. 5) and
   "aggregate transfers averaged over 5-min intervals" (Fig. 6). *)

(* Degradation accounting under faults (the faulted serving loop): how much
   service quality the fleet lost to outages, dead links and saturated
   capacity. All zero for a fault-free playout. *)
type degradation = {
  mutable rejections : int;            (* requests served by nobody *)
  mutable rejected_vho_down : int;     (* requesting VHO itself was down *)
  mutable rejected_no_replica : int;   (* no holder anywhere *)
  mutable rejected_unreachable : int;  (* holders alive but no surviving path *)
  mutable rejected_no_capacity : int;  (* paths exist but all saturated *)
  mutable failovers : int;             (* served by a non-default replica *)
  mutable failover_extra_hops : int;   (* hops beyond the fault-free path *)
  mutable origin_served : int;         (* last-resort origin fallbacks *)
  mutable link_saturated_s : float;    (* total saturated link-seconds *)
}

type t = {
  bin_s : float;
  n_bins : int;
  n_links : int;
  record_from : float;          (* ignore activity before this time *)
  link_load : float array array;  (* link -> bin -> avg Mb/s *)
  per_vho_requests : int array;   (* recorded requests per VHO *)
  per_vho_local : int array;      (* locally served per VHO *)
  mutable requests : int;
  mutable local_served : int;     (* pinned or cache hit at the local VHO *)
  mutable cache_hits : int;
  mutable remote_served : int;
  mutable not_cachable : int;
  mutable total_gb_hops : float;  (* size * hops, the paper's transfer metric *)
  mutable total_gb_remote : float;
  deg : degradation;
}

let create ~n_links ~n_vhos ~horizon_s ?(bin_s = 300.0) ?(record_from = 0.0) () =
  if bin_s <= 0.0 then invalid_arg "Metrics.create: bin_s must be positive";
  let n_bins = int_of_float (ceil (horizon_s /. bin_s)) in
  {
    bin_s;
    n_bins;
    n_links;
    record_from;
    link_load = Array.make_matrix n_links n_bins 0.0;
    per_vho_requests = Array.make n_vhos 0;
    per_vho_local = Array.make n_vhos 0;
    requests = 0;
    local_served = 0;
    cache_hits = 0;
    remote_served = 0;
    not_cachable = 0;
    total_gb_hops = 0.0;
    total_gb_remote = 0.0;
    deg =
      {
        rejections = 0;
        rejected_vho_down = 0;
        rejected_no_replica = 0;
        rejected_unreachable = 0;
        rejected_no_capacity = 0;
        failovers = 0;
        failover_extra_hops = 0;
        origin_served = 0;
        link_saturated_s = 0.0;
      };
  }

let in_record_window t time_s = time_s >= t.record_from

(* Check a store's VHO bound against the per-VHO counter arrays once, up
   front, instead of failing on an array bound mid-playout. O(1):
   construction already bounds-checked every row against the store's own
   [n_vhos]. *)
let validate_store t (trace : Vod_workload.Trace.t) =
  let n = Array.length t.per_vho_requests in
  if trace.Vod_workload.Trace.n_vhos > n then
    invalid_arg
      (Printf.sprintf
         "Metrics.validate_store: store allows VHOs up to %d, counters stop at %d"
         (trace.Vod_workload.Trace.n_vhos - 1)
         (n - 1))

(* Spread a stream of [rate_mbps] over [t0, t1) into the bins of every
   link on its path. Each bin's increment is computed once and added to
   each link's cell; a stream adds once per cell, so every cell gets the
   value and the addition order that one sweep per link would give. *)
let add_stream t ~links ~rate_mbps ~t0 ~t1 =
  let t0 = Float.max t0 t.record_from in
  if t1 > t0 then begin
    let horizon = float_of_int t.n_bins *. t.bin_s in
    let t1 = Float.min t1 horizon in
    let b0 = int_of_float (t0 /. t.bin_s) in
    let b1 = int_of_float (ceil (t1 /. t.bin_s)) - 1 in
    for b = b0 to min b1 (t.n_bins - 1) do
      let bin_start = float_of_int b *. t.bin_s in
      let overlap = Float.min t1 (bin_start +. t.bin_s) -. Float.max t0 bin_start in
      if overlap > 0.0 then begin
        let inc = rate_mbps *. overlap /. t.bin_s in
        for l = 0 to Array.length links - 1 do
          let row = t.link_load.(links.(l)) in
          row.(b) <- row.(b) +. inc
        done
      end
    done
  end

(* Per-bin maximum over links (Fig. 5's series). *)
let peak_series t =
  Array.init t.n_bins (fun b ->
      let m = ref 0.0 in
      for l = 0 to t.n_links - 1 do
        if t.link_load.(l).(b) > !m then m := t.link_load.(l).(b)
      done;
      !m)

(* Per-bin sum over links (Fig. 6's series, in Mb/s across the network). *)
let aggregate_series t =
  Array.init t.n_bins (fun b ->
      let s = ref 0.0 in
      for l = 0 to t.n_links - 1 do
        s := !s +. t.link_load.(l).(b)
      done;
      !s)

(* Highest per-link average over the playout (the paper's "maximum link
   bandwidth"). *)
let max_link_mbps t = Vod_util.Stats_acc.max_elt (peak_series t)

let max_aggregate_mbps t = Vod_util.Stats_acc.max_elt (aggregate_series t)

let local_fraction t =
  if t.requests = 0 then 0.0
  else float_of_int t.local_served /. float_of_int t.requests

(* Fraction of recorded requests that were rejected outright (faulted
   playouts only; 0 otherwise). *)
let rejection_rate t =
  if t.requests = 0 then 0.0
  else float_of_int t.deg.rejections /. float_of_int t.requests

(* Per-VHO local-serving fractions (NaN-free: 0 for idle VHOs). *)
let per_vho_local_fraction t =
  Array.mapi
    (fun i local ->
      let reqs = t.per_vho_requests.(i) in
      if reqs = 0 then 0.0 else float_of_int local /. float_of_int reqs)
    t.per_vho_local
