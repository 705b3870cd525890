(* The parallel runtime's contract is determinism: chunk and band
   boundaries depend only on the problem size, and reductions combine
   in chunk order, so every job count — including 1 — must produce
   bit-identical floats.  These tests drive real multi-domain pools
   (jobs = 2 and 4) against the inline path. *)

open Rgleak_num
open Rgleak_process
open Rgleak_cells
open Rgleak_circuit
open Rgleak_core
open Testutil

let bits = Int64.bits_of_float

let check_bits name expected actual =
  if bits expected <> bits actual then
    Alcotest.failf "%s: %.17g and %.17g differ bitwise" name expected actual

(* A reduction whose result depends on evaluation order: float sums
   regroup under different chunkings, so this would catch any scheme
   that lets the pool size leak into the chunk boundaries. *)
let noise_sum pool =
  Parallel.parallel_for_reduce pool ~n:10_001
    ~init:(fun () -> 0.0)
    ~body:(fun acc i -> acc +. sin (float_of_int i *. 0.7))
    ~combine:( +. )

let test_reduce_deterministic () =
  let reference = Parallel.with_pool ~jobs:1 noise_sum in
  List.iter
    (fun jobs ->
      Parallel.with_pool ~jobs (fun pool ->
          check_bits
            (Printf.sprintf "parallel_for_reduce jobs=%d" jobs)
            reference (noise_sum pool)))
    [ 2; 4 ]

let test_reduce_edge_sizes () =
  Parallel.with_pool ~jobs:2 (fun pool ->
      let sum n =
        Parallel.parallel_for_reduce pool ~n
          ~init:(fun () -> 0)
          ~body:( + ) ~combine:( + )
      in
      check_true "n=0 returns init" (sum 0 = 0);
      check_true "n=1" (sum 1 = 0);
      (* fewer indices than the default chunk count *)
      check_true "n=7 sums 0..6" (sum 7 = 21);
      check_true "n=1000" (sum 1000 = 499_500))

let test_map_array_order () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      let xs = Array.init 203 (fun i -> i) in
      let ys = Parallel.map_array pool (fun i -> (i * 2) + 1) xs in
      Array.iteri
        (fun i y -> check_true (Printf.sprintf "slot %d" i) (y = (i * 2) + 1))
        ys)

let test_run_thunks_exception () =
  Parallel.with_pool ~jobs:2 (fun pool ->
      match
        Parallel.run_thunks pool
          (Array.init 16 (fun i ->
               fun () -> if i = 11 then failwith "thunk-11" else i))
      with
      | _ -> Alcotest.fail "expected the thunk's exception to propagate"
      | exception Failure msg -> check_true "original exception" (msg = "thunk-11"))

let test_triangle_bands_cover =
  qcheck ~count:200 "triangle_bands partitions the rows"
    QCheck2.Gen.(pair (int_range 0 200) (int_range 1 50))
    (fun (n, bands) ->
      let bs = Parallel.triangle_bands ~bands n in
      let rows = max 0 (n - 1) in
      if rows = 0 then bs = [||]
      else begin
        let m = Array.length bs in
        m >= 1
        && fst bs.(0) = 0
        && snd bs.(m - 1) = rows
        && Array.for_all (fun (lo, hi) -> lo < hi) bs
        && Array.for_all
             (fun i -> snd bs.(i) = fst bs.(i + 1))
             (Array.init (m - 1) Fun.id)
      end)

let test_triangle_reduce_pairs () =
  (* Collect every (a, b) pair the scheduler hands out and check the
     multiset equals { (a, b) | 0 <= a < b < n } exactly. *)
  let n = 37 in
  let pairs =
    Parallel.with_pool ~jobs:2 (fun pool ->
        Parallel.triangle_reduce pool ~n
          ~init:(fun () -> [])
          ~row:(fun acc a ->
            let acc = ref acc in
            for b = a + 1 to n - 1 do
              acc := (a, b) :: !acc
            done;
            !acc)
          ~combine:(fun l r -> l @ r))
  in
  let expected = n * (n - 1) / 2 in
  check_true "pair count" (List.length pairs = expected);
  let seen = Hashtbl.create expected in
  List.iter
    (fun (a, b) ->
      check_true "pair in triangle" (0 <= a && a < b && b < n);
      check_true "pair seen once" (not (Hashtbl.mem seen (a, b)));
      Hashtbl.add seen (a, b) ())
    pairs

let test_tri_index_bijection () =
  let n = 9 in
  let hit = Array.make (Parallel.tri_size n) false in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let k = Parallel.tri_index ~n ~i ~j in
      check_true "index in range" (0 <= k && k < Parallel.tri_size n);
      check_true "index unused" (not hit.(k));
      hit.(k) <- true
    done
  done;
  check_true "all slots hit" (Array.for_all Fun.id hit);
  check_true "rejects lower triangle"
    (match Parallel.tri_index ~n ~i:3 ~j:1 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_default_jobs_override () =
  let saved = Parallel.default_jobs () in
  Parallel.set_default_jobs 3;
  check_true "override visible" (Parallel.default_jobs () = 3);
  check_true "shared pool resized" (Parallel.jobs (Parallel.default ()) = 3);
  Parallel.set_default_jobs saved

let test_rng_stream_matches_index () =
  (* stream i is a fixed function of (seed, i): distinct nearby streams,
     and re-derivation is exact. *)
  let a = Rng.stream ~seed:42 7 and b = Rng.stream ~seed:42 7 in
  for i = 1 to 50 do
    check_true (Printf.sprintf "redrawn stream draw %d" i)
      (Rng.bits64 a = Rng.bits64 b)
  done;
  let x = Rng.bits64 (Rng.stream ~seed:42 7) in
  let y = Rng.bits64 (Rng.stream ~seed:42 8) in
  let z = Rng.bits64 (Rng.stream ~seed:43 7) in
  check_true "adjacent streams differ" (x <> y);
  check_true "seeds separate streams" (x <> z)

(* --- integration: the three ported hot paths ---------------------- *)

let param = Process_param.default_channel_length
let corr = lazy (Corr_model.create (Corr_model.Spherical { dmax = 120.0 }) param)

let hist =
  lazy
    (Histogram.of_weights
       [ ("INV_X1", 20.0); ("NAND2_X1", 18.0); ("NOR2_X1", 8.0); ("DFF_X1", 9.0) ])

let test_exact_estimator_jobs () =
  let chars = Characterize.default_library () in
  let corr = Lazy.force corr in
  let ctx =
    Estimate.context ~p:0.5 ~chars ~corr ~histogram:(Lazy.force hist) ()
  in
  let rng = Rng.create ~seed:77 () in
  let placed =
    Generator.random_placed ~histogram:(Lazy.force hist) ~n:600 ~rng ()
  in
  let rgcorr = Estimate.correlation ctx in
  let r1 = Estimator_exact.estimate ~jobs:1 ~corr ~rgcorr placed in
  let r4 = Estimator_exact.estimate ~jobs:4 ~corr ~rgcorr placed in
  check_bits "exact mean jobs 1 vs 4" r1.Estimator_exact.mean
    r4.Estimator_exact.mean;
  check_bits "exact variance jobs 1 vs 4" r1.Estimator_exact.variance
    r4.Estimator_exact.variance;
  check_bits "exact std jobs 1 vs 4" r1.Estimator_exact.std
    r4.Estimator_exact.std

let test_mc_stream_jobs () =
  let chars = Characterize.default_library () in
  let corr = Lazy.force corr in
  let rng = Rng.create ~seed:88 () in
  let placed =
    Generator.random_placed ~histogram:(Lazy.force hist) ~n:100 ~rng ()
  in
  let mc = Mc_reference.prepare ~chars ~corr ~p:0.5 placed in
  let count = 64 in
  let s1 = Mc_reference.sample_many_stream ~jobs:1 mc ~seed:303 ~count in
  let s2 = Mc_reference.sample_many_stream ~jobs:2 mc ~seed:303 ~count in
  let s4 = Mc_reference.sample_many_stream ~jobs:4 mc ~seed:303 ~count in
  for i = 0 to count - 1 do
    check_bits (Printf.sprintf "replica %d jobs 1 vs 2" i) s1.(i) s2.(i);
    check_bits (Printf.sprintf "replica %d jobs 1 vs 4" i) s1.(i) s4.(i);
    check_bits
      (Printf.sprintf "replica %d vs sample_stream" i)
      (Mc_reference.sample_stream mc ~seed:303 i)
      s1.(i)
  done;
  let m1, sd1 = Mc_reference.moments_stream ~jobs:1 mc ~seed:303 ~count in
  let m2, sd2 = Mc_reference.moments_stream ~jobs:2 mc ~seed:303 ~count in
  check_bits "mc mean jobs 1 vs 2" m1 m2;
  check_bits "mc std jobs 1 vs 2" sd1 sd2

(* The replica fill sizes its chunks from the pool: a few per domain,
   never below the 16-replica grain. *)
let test_mc_chunks_for () =
  let check name expected ~jobs ~count =
    Alcotest.(check int) name expected (Mc_reference.chunks_for ~jobs ~count)
  in
  check "tiny runs collapse to one chunk" 1 ~jobs:4 ~count:10;
  check "zero replicas still one chunk" 1 ~jobs:4 ~count:0;
  check "grain caps a single-domain run" 4 ~jobs:1 ~count:400;
  check "chunks scale with domains" 16 ~jobs:4 ~count:400;
  check "grain caps a wide pool" 25 ~jobs:16 ~count:400;
  (* the grain cap keeps average chunk size useful: count/chunks is at
     least half the grain (the ceiling division costs at most 2x) *)
  for jobs = 1 to 8 do
    for count = 2 to 200 do
      let c = Mc_reference.chunks_for ~jobs ~count in
      if c > 1 then
        check_true
          (Printf.sprintf "grain respected at jobs=%d count=%d" jobs count)
          (count / c >= 8)
    done
  done

(* Chunk decompositions differ between these job counts (the count sits
   past the single-domain cap), yet samples and moments must not. *)
let test_mc_chunking_jobs_invariant () =
  let chars = Characterize.default_library () in
  let corr = Lazy.force corr in
  let rng = Rng.create ~seed:89 () in
  let placed =
    Generator.random_placed ~histogram:(Lazy.force hist) ~n:60 ~rng ()
  in
  let mc = Mc_reference.prepare ~chars ~corr ~p:0.5 placed in
  List.iter
    (fun count ->
      check_true
        (Printf.sprintf "decompositions differ at count=%d" count)
        (Mc_reference.chunks_for ~jobs:1 ~count
        <> Mc_reference.chunks_for ~jobs:3 ~count);
      let s1 = Mc_reference.sample_many_stream ~jobs:1 mc ~seed:404 ~count in
      let s3 = Mc_reference.sample_many_stream ~jobs:3 mc ~seed:404 ~count in
      for i = 0 to count - 1 do
        check_bits (Printf.sprintf "count=%d replica %d" count i) s1.(i) s3.(i)
      done;
      let m1, sd1 = Mc_reference.moments_stream ~jobs:1 mc ~seed:404 ~count in
      let m3, sd3 = Mc_reference.moments_stream ~jobs:3 mc ~seed:404 ~count in
      check_bits (Printf.sprintf "count=%d mean" count) m1 m3;
      check_bits (Printf.sprintf "count=%d std" count) sd1 sd3)
    [ 65; 100; 130 ]

let test_characterize_jobs () =
  let one jobs =
    Characterize.characterize_library ~l_points:17 ~mc_samples:200 ~jobs ~param
      ~seed:5 ()
  in
  let a = one 1 and b = one 2 in
  check_true "same library size" (Array.length a = Array.length b);
  Array.iteri
    (fun ci (ca : Characterize.cell_char) ->
      let cb = b.(ci) in
      Array.iteri
        (fun si (sa : Characterize.state_char) ->
          let sb = cb.Characterize.states.(si) in
          let tag field =
            Printf.sprintf "%s %s/state %d" field ca.Characterize.cell.Cell.name si
          in
          check_bits (tag "mu_analytic") sa.Characterize.mu_analytic
            sb.Characterize.mu_analytic;
          check_bits (tag "sigma_analytic") sa.Characterize.sigma_analytic
            sb.Characterize.sigma_analytic;
          match (sa.Characterize.mc, sb.Characterize.mc) with
          | Some ma, Some mb ->
            check_bits (tag "mu_mc") ma.Characterize.mu_mc mb.Characterize.mu_mc;
            check_bits (tag "sigma_mc") ma.Characterize.sigma_mc
              mb.Characterize.sigma_mc
          | _ -> Alcotest.fail (tag "opt-in MC cross-check missing"))
        ca.Characterize.states)
    a

let suite =
  ( "parallel",
    [
      case "parallel_for_reduce bit-identical across jobs"
        test_reduce_deterministic;
      case "parallel_for_reduce edge sizes" test_reduce_edge_sizes;
      case "map_array preserves order" test_map_array_order;
      case "run_thunks propagates exceptions" test_run_thunks_exception;
      test_triangle_bands_cover;
      case "triangle_reduce covers each pair once" test_triangle_reduce_pairs;
      case "tri_index is a bijection" test_tri_index_bijection;
      case "default jobs override" test_default_jobs_override;
      case "rng streams are reproducible" test_rng_stream_matches_index;
      slow_case "exact estimator jobs 1 vs 4" test_exact_estimator_jobs;
      case "mc reference streams across jobs" test_mc_stream_jobs;
      case "mc replica chunk sizing" test_mc_chunks_for;
      case "mc chunking jobs-invariant" test_mc_chunking_jobs_invariant;
      slow_case "characterization jobs 1 vs 2" test_characterize_jobs;
    ] )
