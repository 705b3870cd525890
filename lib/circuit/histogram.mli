(** Cell-usage histograms (the "frequency of use distribution" of the
    paper's high-level characteristics).

    A histogram is a probability vector over the canonical library cell
    order; it can be {e extracted} from a netlist (late mode) or
    {e specified} from design experience (early mode). *)

type t = private float array
(** Length {!Rgleak_cells.Library.size}; entries sum to 1. *)

val of_weights : (string * float) list -> t
(** Builds a histogram from (cell name, weight) pairs; weights need not
    be normalized.  Unlisted cells get zero.  Raises
    {!Rgleak_num.Guard.Error} ([Invalid_input]) on an unknown cell name
    or an empty mix, and [Invalid_argument] on a negative weight or a
    non-positive total. *)

val parse_mix : string -> (string * float) list
(** Parses a mix spec: comma-separated [CELL:WEIGHT] entries, e.g.
    ["INV_X1:3,NAND2_X1:2"].  Each entry must name a library cell and
    carry a finite non-negative weight; an all-zero mix passes here and
    fails in {!of_weights}.  Raises {!Rgleak_num.Guard.Error}
    ([Invalid_input]) on an empty or malformed spec. *)

val of_counts : int array -> t
(** Normalizes integer per-cell counts (length must equal library size). *)

val of_netlist : Netlist.t -> t
(** Late-mode extraction. *)

val uniform : unit -> t
(** Equal weight on every library cell. *)

val frequency : t -> int -> float
val to_array : t -> float array
(** A fresh copy of the underlying probabilities. *)

val counts_for : t -> n:int -> int array
(** Integer cell counts for a design of [n] gates matching the histogram
    as closely as possible (largest-remainder rounding; sums to [n]). *)

val support : t -> int list
(** Cell indices with non-zero frequency. *)

val distance_l1 : t -> t -> float
(** Total-variation-style L1 distance between two histograms. *)
