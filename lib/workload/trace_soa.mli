(** The request store under its former name, kept only because the
    repository benchmark (bench/perf) still calls it by that name:
    {!Trace} itself, with equal types. New code uses {!Trace}; the alias
    goes at the next change to bench/perf. *)

include module type of struct
  include Trace
end
