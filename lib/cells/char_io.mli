(** Persistence of library characterizations.

    Characterizing the 62-cell library costs a couple of seconds; a
    sign-off flow does it once per process corner and reuses the result.
    This module serializes a {!Characterize.cell_char} array to a
    versioned, line-oriented text format (leakage tables, fitted
    triplets, and all computed moments) and loads it back, verifying the
    cells still match the in-memory library.  Version 2 writes [- -] in
    place of the MC moments when the cross-check did not run; the
    reader also accepts version 1 files, whose MC moments are always
    present.

    The format is plain text so it can be diffed and inspected:

    {v
    rgleak-characterization 2
    param channel-length 90 3 3
    cell INV_X1 2
    state 0 <mu_fit> <sigma_fit> <mu_ref> <sigma_ref> <mu_mc|-> <sigma_mc|-> <a> <b> <c> <rms> <npoints>
    <L> <leakage>
    ...
    end
    v} *)

exception Format_error of string
(** Raised by the readers on malformed or incompatible input. *)

val to_string : Characterize.cell_char array -> string
val of_string : string -> Characterize.cell_char array

val save : path:string -> Characterize.cell_char array -> unit
val load : path:string -> Characterize.cell_char array
(** [load] raises {!Format_error} if the file is malformed, names a cell
    the library does not have, or disagrees with the cell's state
    count. *)
