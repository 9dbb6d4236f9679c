(** First-class packing of the bundled data types.

    A value of {!t} wraps a [Spec.Data_type.S] module (specification
    {e and} generators) under a stable CLI key, together with its
    executor [Exec.Run(T)], applied once per type when this module
    initialises.  The sweep engine, the fault matrix, the CLI and the
    bench dispatch over all ten bundled types by list lookup — no
    per-type match arms, and no functor application per run. *)

(** A type's executor: the type itself and [Exec.Run] applied to it. *)
module type RUNNER = sig
  module T : Spec.Data_type.S
  include module type of Exec.Run (T)
end

type t

val key : t -> string
(** Stable CLI name, e.g. ["rmw-register"]. *)

val runner : t -> (module RUNNER)
(** The type's one executor instance.  It holds no mutable state, so
    every run and every domain shares it. *)

val modl : t -> (module Spec.Data_type.S)

val spec_name : t -> string
(** The wrapped module's own [T.name]. *)

val all : t list
(** The ten bundled types: the nine scalar types plus the
    queue × register product. *)

val keys : string list
val find : string -> t option

val run : Types.t -> Exec.outcome
(** Run a scenario on its data type's executor; an unknown [dt] is a
    named diagnostic. *)
