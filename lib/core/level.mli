(** The five cumulative transformation levels of the paper's evaluation
    (Section 3.2): Conv, then + unrolling (Lev1), + renaming (Lev2),
    + combining/strength/tree-height (Lev3), + the expansions (Lev4). *)

open Impact_ir

type t = Conv | Lev1 | Lev2 | Lev3 | Lev4

val all : t list

val to_string : t -> string

val of_string : string -> t option

val rank : t -> int

val includes : t -> t -> bool
(** [includes a b]: level [a] applies everything [b] does. *)

val cleanup : Prog.t -> Prog.t

type step =
  | Scalar  (** the conventional scalar optimizations (pass "conv") *)
  | Unroll of int option  (** requested factor; [None]: {!Unroll.default_factor} *)
  | Cleanup  (** the scalar cleanup run between and after transformations *)
  | Accum_expand
  | Ind_expand
  | Search_expand
  | Rename
  | Combine
  | Strength
  | Tree_height

val pipeline : ?unroll_factor:int -> t -> step list
(** The level's transformations in order. Every level starts with
    [Scalar], whatever the unroll factor; Lev1-Lev4 then share
    [Unroll; Cleanup] and end with [Cleanup]. *)

val apply_all : ?applied:step list -> step list list -> Prog.t -> Prog.t list
(** [apply_all ~applied pipelines p] runs every pipeline on [p], which is
    the result of the steps [applied] (default none); each pipeline must
    start with [applied] (else [Invalid_argument]), and the rest of it is
    run. A prefix shared by several pipelines runs once and is forked
    ({!Prog.fork}) where they diverge, so each result prints, and carries
    fresh-name counters, exactly as a separate run of its pipeline from
    [p] would. Results come in the order of [pipelines], each with its
    own counters; [p] is left untouched. *)

val apply : ?unroll_factor:int -> t -> Prog.t -> Prog.t
(** [apply_all [pipeline ?unroll_factor level] p]. *)
