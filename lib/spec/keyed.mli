(** Indexed family of one data type: {!Product} generalized from a
    fixed pair to arbitrarily many independent instances addressed by
    an integer key.

    By locality (paper §2.3) a run over the family is linearizable iff
    each key's projection is; the sharded runtime exploits this by
    certifying each key independently with the per-type monitors.
    Operation names and classifications are the element type's,
    untagged, so latency grouping and Algorithm 1's dispatch aggregate
    across keys.  The fused family carries no single-shape monitor
    (like {!Product}); [gen_invocation] draws from a small fixed
    keyspace — workload generators supply their own key
    distribution. *)
module Make (T : Data_type.S) : sig
  type invocation = { key : int; inv : T.invocation }

  include
    Data_type.S
      with type invocation := invocation
       and type response = T.response
end
