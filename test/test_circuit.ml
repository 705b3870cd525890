open Rgleak_num
open Rgleak_cells
open Rgleak_circuit
open Testutil

(* ---- netlist ---- *)

let mk_instances types =
  Array.mapi
    (fun i cell_index -> { Netlist.id = i; cell_index; fanin = [| -1 |] })
    types

let test_netlist_create () =
  let nl = Netlist.create ~name:"t" ~num_primary_inputs:2 (mk_instances [| 0; 1; 0 |]) in
  check_close "size" 3.0 (float_of_int (Netlist.size nl));
  let counts = Netlist.cell_counts nl in
  check_close "count of cell 0" 2.0 (float_of_int counts.(0));
  check_close "count of cell 1" 1.0 (float_of_int counts.(1));
  check_true "positive area" (Netlist.total_area nl > 0.0)

let test_netlist_validation () =
  Alcotest.check_raises "forward fanin rejected"
    (Invalid_argument "Netlist.create: fanin must reference earlier instances")
    (fun () ->
      let bad =
        [| { Netlist.id = 0; cell_index = 0; fanin = [| 1 |] };
           { Netlist.id = 1; cell_index = 0; fanin = [||] } |]
      in
      ignore (Netlist.create ~name:"bad" ~num_primary_inputs:0 bad));
  Alcotest.check_raises "non-dense ids rejected"
    (Invalid_argument "Netlist.create: ids must be dense and ordered") (fun () ->
      let bad = [| { Netlist.id = 1; cell_index = 0; fanin = [||] } |] in
      ignore (Netlist.create ~name:"bad" ~num_primary_inputs:0 bad))

(* ---- histogram ---- *)

let test_histogram_normalization () =
  let h = Histogram.of_weights [ ("INV_X1", 3.0); ("NAND2_X1", 1.0) ] in
  check_close ~tol:1e-12 "inv frequency" 0.75
    (Histogram.frequency h (Library.index_of "INV_X1"));
  check_close ~tol:1e-12 "nand frequency" 0.25
    (Histogram.frequency h (Library.index_of "NAND2_X1"));
  let total = Array.fold_left ( +. ) 0.0 (Histogram.to_array h) in
  check_close ~tol:1e-12 "sums to one" 1.0 total

let test_histogram_counts_roundtrip =
  qcheck ~count:100 "counts_for sums to n"
    QCheck2.Gen.(int_range 1 5000)
    (fun n ->
      let h =
        Histogram.of_weights
          [ ("INV_X1", 2.0); ("NAND2_X1", 3.0); ("NOR2_X1", 1.0); ("DFF_X1", 0.5) ]
      in
      let counts = Histogram.counts_for h ~n in
      Array.fold_left ( + ) 0 counts = n)

let test_histogram_counts_proportions () =
  let h = Histogram.of_weights [ ("INV_X1", 1.0); ("NAND2_X1", 1.0) ] in
  let counts = Histogram.counts_for h ~n:1000 in
  check_close "even split" 500.0
    (float_of_int counts.(Library.index_of "INV_X1"))

let test_histogram_of_netlist_roundtrip () =
  let h = Histogram.of_weights [ ("INV_X1", 1.0); ("XOR2_X1", 3.0) ] in
  let rng = Rng.create ~seed:5 () in
  let nl = Generator.random_netlist ~histogram:h ~n:400 ~rng () in
  let h2 = Histogram.of_netlist nl in
  check_true "extracted histogram matches target"
    (Histogram.distance_l1 h h2 < 0.01)

let test_histogram_support () =
  let h = Histogram.of_weights [ ("INV_X1", 1.0); ("XOR2_X1", 3.0) ] in
  let support = Histogram.support h in
  check_close "support size" 2.0 (float_of_int (List.length support));
  check_true "support contains inv" (List.mem (Library.index_of "INV_X1") support)

let test_histogram_uniform () =
  let h = Histogram.uniform () in
  check_close ~tol:1e-12 "uniform frequency" (1.0 /. 62.0) (Histogram.frequency h 0)

(* ---- layout ---- *)

let test_layout_square () =
  let l = Layout.square ~n:100 () in
  check_close "cols" 10.0 (float_of_int l.Layout.cols);
  check_close "full rows" 10.0 (float_of_int l.Layout.full_rows);
  check_close "no partial" 0.0 (float_of_int l.Layout.partial);
  check_close "site count" 100.0 (float_of_int (Layout.site_count l));
  check_close ~tol:1e-12 "width" 40.0 (Layout.width l)

let test_layout_partial_row () =
  let l = Layout.square ~n:103 () in
  check_close "site count preserved" 103.0 (float_of_int (Layout.site_count l));
  check_true "partial row present" (l.Layout.partial > 0)

let test_layout_positions () =
  let l = Layout.square ~n:4 ~site_w:2.0 ~site_h:2.0 () in
  let x0, y0 = Layout.position l 0 in
  check_close ~tol:1e-12 "first site x" 1.0 x0;
  check_close ~tol:1e-12 "first site y" 1.0 y0;
  let x3, y3 = Layout.position l 3 in
  check_close ~tol:1e-12 "last site x" 3.0 x3;
  check_close ~tol:1e-12 "last site y" 3.0 y3

let test_layout_of_dims () =
  let l = Layout.of_dims ~n:100 ~width:50.0 ~height:50.0 in
  check_close "site count" 100.0 (float_of_int (Layout.site_count l));
  check_rel ~tol:0.2 "width approximated" 50.0 (Layout.width l)

(* brute-force occurrence counting to validate the closed form *)
let brute_occurrences l ~di ~dj =
  let n = Layout.site_count l in
  let cols = l.Layout.cols in
  let count = ref 0 in
  for a = 0 to n - 1 do
    let ra = a / cols and ca = a mod cols in
    let rb = ra + dj and cb = ca + di in
    if cb >= 0 && cb < cols then begin
      let b = (rb * cols) + cb in
      if rb >= 0 && b >= 0 && b < n && b / cols = rb then incr count
    end
  done;
  !count

let test_occurrences_full_grid () =
  let l = Layout.square ~n:36 () in
  (* Eq. 16: (m - |i|)(k - |j|) *)
  for di = -6 to 6 do
    for dj = -6 to 6 do
      let expected =
        Stdlib.max 0 (6 - abs di) * Stdlib.max 0 (6 - abs dj)
      in
      check_close
        (Printf.sprintf "occ(%d,%d)" di dj)
        (float_of_int expected)
        (float_of_int (Layout.occurrences l ~di ~dj))
    done
  done

let test_occurrences_matches_brute =
  qcheck ~count:150 "closed-form occurrences match brute force"
    QCheck2.Gen.(
      tup3 (int_range 1 40) (int_range (-8) 8) (int_range (-8) 8))
    (fun (n, di, dj) ->
      let l = Layout.square ~n () in
      Layout.occurrences l ~di ~dj = brute_occurrences l ~di ~dj)

let test_occurrence_totals =
  qcheck ~count:50 "occurrences sum to n^2"
    QCheck2.Gen.(int_range 1 200)
    (fun n -> Layout.check_occurrence_total (Layout.square ~n ()))

let test_distance_of_offset () =
  let l = Layout.square ~n:9 ~site_w:3.0 ~site_h:4.0 () in
  check_close ~tol:1e-12 "3-4-5 offset" 5.0
    (Layout.distance_of_offset l ~di:1 ~dj:1)

(* ---- placer ---- *)

let test_placement_is_injective () =
  let h = Histogram.of_weights [ ("INV_X1", 1.0) ] in
  let rng = Rng.create ~seed:9 () in
  let placed = Generator.random_placed ~histogram:h ~n:50 ~rng () in
  let sites = Array.copy placed.Placer.site_of_instance in
  Array.sort compare sites;
  let distinct = ref true in
  Array.iteri (fun i s -> if i > 0 && s = sites.(i - 1) then distinct := false) sites;
  check_true "no two instances share a site" !distinct

let test_sequential_placement () =
  let h = Histogram.of_weights [ ("INV_X1", 1.0) ] in
  let rng = Rng.create ~seed:10 () in
  let nl = Generator.random_netlist ~histogram:h ~n:10 ~rng () in
  let layout = Layout.square ~n:10 () in
  let placed = Placer.place ~strategy:Placer.Sequential nl layout in
  for i = 0 to 9 do
    check_close "identity placement" (float_of_int i)
      (float_of_int placed.Placer.site_of_instance.(i))
  done

let test_placer_capacity () =
  let h = Histogram.of_weights [ ("INV_X1", 1.0) ] in
  let rng = Rng.create ~seed:11 () in
  let nl = Generator.random_netlist ~histogram:h ~n:10 ~rng () in
  let layout = Layout.square ~n:5 () in
  Alcotest.check_raises "too small layout"
    (Invalid_argument "Placer.place: not enough sites for the netlist")
    (fun () -> ignore (Placer.place ~strategy:Placer.Sequential nl layout))

let test_extraction () =
  let h = Histogram.of_weights [ ("INV_X1", 1.0); ("NAND2_X1", 1.0) ] in
  let rng = Rng.create ~seed:12 () in
  let placed = Generator.random_placed ~histogram:h ~n:100 ~rng () in
  let h2, n, w, hgt = Placer.extract_characteristics placed in
  check_close "extracted n" 100.0 (float_of_int n);
  check_true "extracted histogram close" (Histogram.distance_l1 h h2 < 0.03);
  check_true "positive dims" (w > 0.0 && hgt > 0.0)

(* ---- generator & benchmarks ---- *)

let test_generator_counts () =
  let h = Histogram.of_weights [ ("INV_X1", 7.0); ("NAND2_X1", 3.0) ] in
  let rng = Rng.create ~seed:13 () in
  let nl = Generator.random_netlist ~histogram:h ~n:1000 ~rng () in
  let counts = Netlist.cell_counts nl in
  check_close "inv count" 700.0
    (float_of_int counts.(Library.index_of "INV_X1"));
  check_close "nand count" 300.0
    (float_of_int counts.(Library.index_of "NAND2_X1"))

let test_fig6_sizes () =
  Array.iter
    (fun n ->
      let r = int_of_float (Float.round (sqrt (float_of_int n))) in
      check_close (Printf.sprintf "%d is a perfect square" n)
        (float_of_int n)
        (float_of_int (r * r)))
    Generator.fig6_sizes;
  check_close "paper's largest size" 11236.0
    (float_of_int Generator.fig6_sizes.(Array.length Generator.fig6_sizes - 1))

let test_benchmark_specs () =
  check_close "ten benchmarks" 10.0 (float_of_int (Array.length Benchmarks.specs));
  check_close "table 1 lists nine" 9.0
    (float_of_int (List.length Benchmarks.table1_names));
  List.iter
    (fun name -> ignore (Benchmarks.find name))
    Benchmarks.table1_names;
  let c6288 = Benchmarks.find "c6288" in
  check_close "published c6288 gate count" 2406.0 (float_of_int c6288.Benchmarks.gates)

let test_benchmark_netlists () =
  List.iter
    (fun name ->
      let spec = Benchmarks.find name in
      let nl = Benchmarks.netlist spec in
      check_close (name ^ " gate count")
        (float_of_int spec.Benchmarks.gates)
        (float_of_int (Netlist.size nl)))
    [ "c432"; "c499"; "c6288" ]

let test_benchmark_placement () =
  let placed = Benchmarks.placed (Benchmarks.find "c432") in
  check_close "c432 placed completely" 160.0
    (float_of_int (Netlist.size placed.Placer.netlist));
  check_true "die sized from area"
    (Layout.width placed.Placer.layout > 10.0)

let test_benchmark_determinism () =
  let a = Benchmarks.netlist (Benchmarks.find "c880") in
  let b = Benchmarks.netlist (Benchmarks.find "c880") in
  check_true "same seed, same netlist"
    (Netlist.cell_counts a = Netlist.cell_counts b)

(* ---- placement I/O ---- *)

let test_placement_roundtrip () =
  let h = Histogram.of_weights [ ("INV_X1", 1.0); ("NAND2_X1", 1.0) ] in
  let rng = Rng.create ~seed:77 () in
  let placed = Generator.random_placed ~histogram:h ~n:120 ~rng () in
  let pl = Placement_io.of_placed placed in
  let restored = Placement_io.of_string (Placement_io.to_string pl) in
  check_close "count preserved" 120.0
    (float_of_int (Array.length restored.Placement_io.positions));
  check_close ~tol:1e-12 "width preserved" pl.Placement_io.width
    restored.Placement_io.width;
  let applied = Placement_io.apply placed.Placer.netlist restored in
  (* re-applying an extracted placement over the same-geometry grid must
     put every instance back exactly *)
  check_close ~tol:1e-9 "positions reproduced exactly" 0.0
    (Placement_io.max_snap_distance applied restored)

let test_placement_snapping () =
  (* jittered coordinates snap to nearby sites without collisions *)
  let h = Histogram.of_weights [ ("INV_X1", 1.0) ] in
  let rng = Rng.create ~seed:78 () in
  let placed = Generator.random_placed ~histogram:h ~n:64 ~rng () in
  let pl = Placement_io.of_placed placed in
  let jittered =
    {
      pl with
      Placement_io.positions =
        Array.map
          (fun (x, y) ->
            (x +. Rng.float rng 1.0 -. 0.5, y +. Rng.float rng 1.0 -. 0.5))
          pl.Placement_io.positions;
    }
  in
  let applied = Placement_io.apply placed.Placer.netlist jittered in
  let sites = Array.copy applied.Placer.site_of_instance in
  Array.sort compare sites;
  let distinct = ref true in
  Array.iteri (fun i s -> if i > 0 && s = sites.(i - 1) then distinct := false) sites;
  check_true "no site collisions after snapping" !distinct;
  check_true "snap distance bounded by a site pitch"
    (Placement_io.max_snap_distance applied jittered < 6.0)

let test_placement_errors () =
  check_true "bad header rejected"
    (try
       ignore (Placement_io.of_string "not-a-placement\n");
       false
     with Placement_io.Format_error _ -> true);
  check_true "duplicate id rejected"
    (try
       ignore
         (Placement_io.of_string
            "rgleak-placement 1\ndie 10 10\n0 1 1\n0 2 2\n");
       false
     with Placement_io.Format_error _ -> true);
  let h = Histogram.of_weights [ ("INV_X1", 1.0) ] in
  let rng = Rng.create ~seed:79 () in
  let nl = Generator.random_netlist ~histogram:h ~n:10 ~rng () in
  check_true "count mismatch rejected"
    (try
       ignore
         (Placement_io.apply nl
            { Placement_io.width = 10.0; height = 10.0; positions = [| (1.0, 1.0) |] });
       false
     with Invalid_argument _ -> true)

(* The mix grammar checks each entry (known cell, finite non-negative
   weight); an all-zero mix parses and fails in of_weights. *)
let test_parse_mix () =
  Alcotest.(check (list (pair string (float 0.0))))
    "entries in order, names trimmed"
    [ ("INV_X1", 3.0); ("NAND2_X1", 2.5); ("INV_X1", 0.0) ]
    (Histogram.parse_mix " INV_X1:3, NAND2_X1 :2.5,INV_X1:0");
  let invalid name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Guard.Error Invalid_input" name
    | exception Guard.Error (Guard.Invalid_input _) -> ()
  in
  List.iter
    (fun spec -> invalid spec (fun () -> Histogram.parse_mix spec))
    [
      "FOO_X1:1"; "INV_X1:nan"; "INV_X1:inf"; "INV_X1:-1"; "INV_X1:x";
      "INV_X1"; "INV_X1:1:2"; "INV_X1:1,"; ""; "  ";
    ];
  invalid "unknown cell in of_weights" (fun () ->
      Histogram.of_weights [ ("FOO_X1", 1.0) ]);
  Alcotest.check_raises "all-zero mix"
    (Invalid_argument "Histogram: total weight must be positive") (fun () ->
      ignore (Histogram.of_weights (Histogram.parse_mix "INV_X1:0")))

let suite =
  ( "circuit",
    [
      case "netlist create" test_netlist_create;
      case "netlist validation" test_netlist_validation;
      case "histogram normalization" test_histogram_normalization;
      test_histogram_counts_roundtrip;
      case "histogram proportions" test_histogram_counts_proportions;
      case "histogram extraction roundtrip" test_histogram_of_netlist_roundtrip;
      case "histogram support" test_histogram_support;
      case "uniform histogram" test_histogram_uniform;
      case "square layout" test_layout_square;
      case "partial row layout" test_layout_partial_row;
      case "site positions" test_layout_positions;
      case "layout from dims" test_layout_of_dims;
      case "occurrences on full grid (Eq 16)" test_occurrences_full_grid;
      test_occurrences_matches_brute;
      test_occurrence_totals;
      case "offset distance" test_distance_of_offset;
      case "placement injective" test_placement_is_injective;
      case "sequential placement" test_sequential_placement;
      case "placer capacity check" test_placer_capacity;
      case "late-mode extraction" test_extraction;
      case "generator matches histogram" test_generator_counts;
      case "fig 6 sizes" test_fig6_sizes;
      case "benchmark specs" test_benchmark_specs;
      case "benchmark netlists" test_benchmark_netlists;
      case "benchmark placement" test_benchmark_placement;
      case "benchmark determinism" test_benchmark_determinism;
      case "placement roundtrip" test_placement_roundtrip;
      case "placement snapping" test_placement_snapping;
      case "placement errors" test_placement_errors;
      case "mix spec parsing" test_parse_mix;
    ] )
