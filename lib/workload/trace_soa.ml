(* Kept only for bench/perf, which still names the store Trace_soa (see
   trace_soa.mli). *)

include Trace
