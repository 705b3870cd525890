open Rgleak_cells
module Guard = Rgleak_num.Guard

type t = float array

let normalize weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Histogram: total weight must be positive";
  Array.map (fun w -> w /. total) weights

let cell_index name =
  try Library.index_of name
  with Not_found -> Guard.invalid (Printf.sprintf "unknown cell %S" name)

let of_weights pairs =
  if pairs = [] then Guard.invalid "Histogram.of_weights: empty cell mix";
  let weights = Array.make Library.size 0.0 in
  List.iter
    (fun (name, w) ->
      if w < 0.0 then invalid_arg "Histogram.of_weights: negative weight";
      let i = cell_index name in
      weights.(i) <- weights.(i) +. w)
    pairs;
  normalize weights

let parse_mix s =
  let fail fmt = Printf.ksprintf Guard.invalid fmt in
  if String.trim s = "" then fail "empty cell mix";
  List.map
    (fun entry ->
      match String.split_on_char ':' (String.trim entry) with
      | [ name; w ] -> (
        let name = String.trim name in
        ignore (cell_index name);
        match float_of_string_opt w with
        | Some w when Float.is_finite w && w >= 0.0 -> (name, w)
        | _ -> fail "bad weight in mix entry %S" entry)
      | _ -> fail "bad mix entry %S (want CELL:WEIGHT)" entry)
    (String.split_on_char ',' s)

let of_counts counts =
  if Array.length counts <> Library.size then
    invalid_arg "Histogram.of_counts: length must equal library size";
  normalize (Array.map float_of_int counts)

let of_netlist netlist = of_counts (Netlist.cell_counts netlist)
let uniform () = normalize (Array.make Library.size 1.0)
let frequency t i = t.(i)
let to_array t = Array.copy t

let counts_for t ~n =
  if n < 0 then invalid_arg "Histogram.counts_for: negative gate count";
  let exact = Array.map (fun a -> a *. float_of_int n) t in
  let counts = Array.map (fun x -> int_of_float (Float.floor x)) exact in
  let assigned = Array.fold_left ( + ) 0 counts in
  let remainders =
    Array.mapi (fun i x -> (x -. Float.floor x, i)) exact
  in
  Array.sort (fun (r1, _) (r2, _) -> compare r2 r1) remainders;
  let missing = n - assigned in
  for k = 0 to missing - 1 do
    let _, i = remainders.(k mod Array.length remainders) in
    counts.(i) <- counts.(i) + 1
  done;
  counts

let support t =
  Array.to_list (Array.mapi (fun i a -> (i, a)) t)
  |> List.filter_map (fun (i, a) -> if a > 0.0 then Some i else None)

let distance_l1 a b =
  if Array.length a <> Array.length b then
    invalid_arg "Histogram.distance_l1: length mismatch";
  let s = ref 0.0 in
  Array.iteri (fun i x -> s := !s +. Float.abs (x -. b.(i))) a;
  !s
