(* Tier-1 subset of the validation harness: the statistical machinery
   (equivalence gates, kurtosis-adjusted intervals), the JSON
   round-trip the golden baselines rest on, the golden-diff drift
   classes, and one real quick-sweep run checked for pass status,
   bit-reproducibility across job counts, and agreement with the
   committed baseline.  The full paper-table sweep runs under
   `make check` / `rgleak validate`, not here. *)

open Rgleak_num
open Rgleak_valid
open Testutil
module Vjson = Rgleak_obs.Vjson

(* ---- Stat_test: intervals and the equivalence gate ---- *)

let test_intervals () =
  check_close ~tol:1e-3 "z at 95%" 1.960 (Stats.z_of_confidence 0.95);
  check_close ~tol:1e-3 "z at 99%" 2.576 (Stats.z_of_confidence 0.99);
  let i = Stat_test.mean_interval ~mean:100.0 ~std:20.0 ~count:400 ~confidence:0.95 in
  check_close "mean se = std/sqrt n" 1.0 i.Stat_test.se;
  check_close ~tol:1e-3 "mean half-width" 1.960 (Stat_test.half_width i);
  (* normal kurtosis recovers the normal-theory SE up to O(1/n) *)
  let se_n = Stats.std_se ~std:20.0 ~count:400 in
  let se_k = Stats.std_se_kurtosis ~std:20.0 ~kurtosis:3.0 ~count:400 in
  check_rel ~tol:3e-3 "kurtosis 3 matches normal theory" se_n se_k;
  (* heavy tails widen, light tails never narrow below normal *)
  check_true "kurtosis 9 widens"
    (Stats.std_se_kurtosis ~std:20.0 ~kurtosis:9.0 ~count:400 > 1.9 *. se_k);
  check_close "kurtosis 1.5 floored at normal" se_k
    (Stats.std_se_kurtosis ~std:20.0 ~kurtosis:1.5 ~count:400)

let test_equivalence_gate () =
  let reference = Stat_test.interval ~center:100.0 ~se:2.0 ~confidence:0.95 in
  let hw = Stat_test.half_width reference in
  let verdict value budget_rel =
    Stat_test.equivalent ~value ~reference ~budget_rel
  in
  check_true "center passes" (verdict 100.0 0.0).Stat_test.pass;
  check_true "inside CI passes" (verdict (100.0 +. (0.9 *. hw)) 0.0).Stat_test.pass;
  check_true "outside CI fails" (not (verdict (100.0 +. (1.1 *. hw)) 0.0).Stat_test.pass);
  (* a model-error budget widens the gate by budget_rel * |center| *)
  check_true "budget rescues CI miss"
    (verdict (100.0 +. hw +. 4.9) 0.05).Stat_test.pass;
  check_true "beyond CI + budget fails"
    (not (verdict (100.0 +. hw +. 5.1) 0.05).Stat_test.pass);
  check_true "NaN never passes" (not (verdict Float.nan 0.5).Stat_test.pass);
  check_true "infinity never passes"
    (not (verdict Float.infinity 0.5).Stat_test.pass);
  check_close "z in SE units" 2.5 (verdict 105.0 0.0).Stat_test.z;
  (match Stat_test.equivalent ~value:1.0 ~reference ~budget_rel:(-0.1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative budget accepted")

let test_kurtosis () =
  (* two-point symmetric sample: kurtosis is exactly 1 *)
  check_close "two-point kurtosis" 1.0
    (Stats.kurtosis [| 1.0; -1.0; 1.0; -1.0; 1.0; -1.0 |]);
  (* uniform samples: kurtosis -> 9/5 *)
  let rng = Rng.create ~seed:7 () in
  let xs = Array.init 30_000 (fun _ -> Rng.uniform rng) in
  check_close ~tol:0.05 "uniform kurtosis" 1.8 (Stats.kurtosis xs);
  (match Stats.kurtosis [| 2.0; 2.0; 2.0; 2.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero variance accepted")

(* ---- Vjson: the round-trip the golden engine rests on ---- *)

let sample_doc =
  Vjson.Obj
    [
      ("schema", Vjson.Str "x/1");
      ("pi", Vjson.Num 3.1415926535897931);
      ("tiny", Vjson.Num 1.2345678901234567e-21);
      ("count", Vjson.Num 400.0);
      ("flag", Vjson.Bool true);
      ("nothing", Vjson.Null);
      ( "items",
        Vjson.Arr
          [
            Vjson.Num (-0.1);
            Vjson.Str "a \"quoted\"\nline";
            Vjson.Obj [ ("k", Vjson.Arr []) ];
            Vjson.Obj [];
          ] );
    ]

let test_vjson_roundtrip () =
  let compact = Vjson.to_string sample_doc in
  let pretty = Vjson.to_string ~indent:2 sample_doc in
  check_true "compact parses back" (Vjson.parse compact = sample_doc);
  check_true "pretty parses back" (Vjson.parse pretty = sample_doc);
  (* %.17g float round-trip is exact, not approximate *)
  let rng = Rng.create ~seed:12 () in
  for _ = 1 to 200 do
    let f = (Rng.uniform rng -. 0.5) *. exp (40.0 *. (Rng.uniform rng -. 0.5)) in
    match Vjson.parse (Vjson.to_string (Vjson.Num f)) with
    | Vjson.Num f' ->
      if Int64.bits_of_float f <> Int64.bits_of_float f' then
        Alcotest.failf "float %h drifted to %h over the round-trip" f f'
    | _ -> Alcotest.fail "number parsed as non-number"
  done

(* \uXXXX escapes decode to UTF-8 (surrogate pairs combined); a lone
   surrogate or a malformed escape is a parse error, never a silently
   different string. *)
let test_vjson_unicode_escapes () =
  let str s =
    match Vjson.parse s with
    | Vjson.Str x -> x
    | _ -> Alcotest.failf "%s did not parse as a string" s
  in
  Alcotest.(check string) "two-byte" "caf\xc3\xa9" (str {|"caf\u00e9"|});
  Alcotest.(check string) "three-byte, uppercase hex" "\xe2\x82\xac"
    (str {|"\u20AC"|});
  Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80"
    (str {|"\ud83d\ude00"|});
  Alcotest.(check string) "control character" "a\x01b" (str {|"a\u0001b"|});
  List.iter
    (fun s ->
      match Vjson.parse s with
      | exception Vjson.Parse_error _ -> ()
      | _ -> Alcotest.failf "malformed escape %s accepted" s)
    [
      {|"\ud83d"|}; {|"\ude00"|}; {|"\ud83d\u0041"|}; {|"\ud83dx"|};
      {|"\u00g9"|}; {|"\u12"|}; {|"\u+123"|};
    ]

(* to_string always emits what parse accepts: every value round-trips,
   finite numbers bit-exactly, non-finite ones (no JSON spelling) as
   null.  Strings are arbitrary bytes: valid UTF-8 comes back as is,
   each maximal invalid subpart as U+FFFD. *)
let vjson_gen =
  let open QCheck2.Gen in
  let num =
    oneof
      [
        float;
        map Int64.float_of_bits int64;
        map float_of_int int;
        oneofl [ nan; infinity; neg_infinity; -0.0; 1e15; -1e15; 5e-324 ];
      ]
  in
  let str = string_size (0 -- 12) in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               pure Vjson.Null;
               map (fun b -> Vjson.Bool b) bool;
               map (fun f -> Vjson.Num f) num;
               map (fun s -> Vjson.Str s) str;
             ]
         in
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Vjson.Arr l) (list_size (0 -- 4) (self (n / 4))));
               ( 1,
                 map
                   (fun l -> Vjson.Obj l)
                   (list_size (0 -- 4) (pair str (self (n / 4)))) );
             ])

let utf8_sanitized s =
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i < String.length s then begin
      let d = String.get_utf_8_uchar s i in
      Buffer.add_utf_8_uchar b
        (if Uchar.utf_decode_is_valid d then Uchar.utf_decode_uchar d
         else Uchar.rep);
      go (i + Uchar.utf_decode_length d)
    end
  in
  go 0;
  Buffer.contents b

let rec vjson_expected = function
  | Vjson.Num f when not (Float.is_finite f) -> Vjson.Null
  | Vjson.Str s -> Vjson.Str (utf8_sanitized s)
  | Vjson.Arr vs -> Vjson.Arr (List.map vjson_expected vs)
  | Vjson.Obj kvs ->
    Vjson.Obj
      (List.map (fun (k, v) -> (utf8_sanitized k, vjson_expected v)) kvs)
  | v -> v

let rec vjson_bit_equal a b =
  match (a, b) with
  | Vjson.Num x, Vjson.Num y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Vjson.Arr xs, Vjson.Arr ys ->
    List.length xs = List.length ys && List.for_all2 vjson_bit_equal xs ys
  | Vjson.Obj xs, Vjson.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, x) (k', y) -> k = k' && vjson_bit_equal x y) xs ys
  | _ -> a = b

let test_vjson_roundtrip_property =
  qcheck ~count:500 "vjson to_string/parse round-trip (property)" vjson_gen
    (fun v ->
      let want = vjson_expected v in
      vjson_bit_equal want (Vjson.parse (Vjson.to_string v))
      && vjson_bit_equal want (Vjson.parse (Vjson.to_string ~indent:2 v)))

let test_vjson_errors () =
  List.iter
    (fun s ->
      match Vjson.parse s with
      | exception Vjson.Parse_error _ -> ()
      | _ -> Alcotest.failf "malformed %S accepted" s)
    [ ""; "{"; "tru"; "1..2"; "{\"a\" 1}"; "[1, ]"; "\"open"; "{} garbage" ]

(* ---- golden diff drift classes ---- *)

(* Structural helper: apply [f] to the value at an object/array path. *)
let rec update path f j =
  match (path, j) with
  | [], v -> f v
  | k :: rest, Vjson.Obj kvs ->
    Vjson.Obj
      (List.map (fun (k', v) -> if k' = k then (k', update rest f v) else (k', v)) kvs)
  | k :: rest, Vjson.Arr vs ->
    Vjson.Arr (List.mapi (fun i v -> if string_of_int i = k then update rest f v else v) vs)
  | _ -> Alcotest.fail "bad update path"

let quick_report = lazy (Experiment.run ~seed:42 Experiment.quick_sweep)

let test_quick_sweep_passes () =
  let r = Lazy.force quick_report in
  check_true "schema id" (r.Experiment.schema = "rgleak-validate/1");
  check_true "all points pass" r.Experiment.pass;
  List.iter
    (fun (p : Experiment.point_report) ->
      check_true (p.Experiment.point.Experiment.label ^ " mc ok")
        (p.Experiment.mc.Experiment.mc_status = "ok");
      List.iter
        (fun (t : Experiment.tier_report) ->
          check_true
            (p.Experiment.point.Experiment.label ^ "/" ^ t.Experiment.tier)
            (t.Experiment.status = "ok" && t.Experiment.tier_pass))
        p.Experiment.tiers;
      (* the exact tier is its own relative-error reference *)
      match p.Experiment.tiers with
      | exact :: _ ->
        check_close "exact mean_rel_err = 0" 0.0
          (Option.get exact.Experiment.mean_rel_err)
      | [] -> Alcotest.fail "no tiers")
    r.Experiment.point_reports

let test_golden_self_identical () =
  let j = Experiment.to_json (Lazy.force quick_report) in
  let d = Golden_diff.compare ~baseline:j ~current:j in
  check_true "self-compare identical" (d.Golden_diff.severity = Golden_diff.Identical);
  check_true "no findings" (d.Golden_diff.findings = [])

let test_golden_drift_classes () =
  let j = Experiment.to_json (Lazy.force quick_report) in
  let mc_se =
    Vjson.num
      (Vjson.get "mean_se"
         (Vjson.get "mc" (List.nth (Vjson.arr (Vjson.get "points" j)) 0)))
  in
  let shift_mean delta doc =
    update [ "points"; "0"; "mc"; "mean" ]
      (fun v -> Vjson.Num (Vjson.num v +. delta))
      doc
  in
  (* drift within the baseline's own CI: benign *)
  let d = Golden_diff.compare ~baseline:(shift_mean (0.5 *. mc_se) j) ~current:j in
  check_true "within-CI drift benign" (d.Golden_diff.severity = Golden_diff.Benign);
  (* drift beyond the CI: breaking *)
  let d = Golden_diff.compare ~baseline:(shift_mean (10.0 *. mc_se) j) ~current:j in
  check_true "beyond-CI drift breaking"
    (d.Golden_diff.severity = Golden_diff.Breaking);
  (* structural: a flipped pass flag *)
  let flipped =
    update [ "points"; "0"; "pass" ] (fun _ -> Vjson.Bool false) j
  in
  let d = Golden_diff.compare ~baseline:flipped ~current:j in
  check_true "pass flip breaking" (d.Golden_diff.severity = Golden_diff.Breaking);
  (* structural: a tier status change *)
  let errored =
    update [ "points"; "0"; "tiers"; "1"; "status" ]
      (fun _ -> Vjson.Str "error:numeric")
      j
  in
  let d = Golden_diff.compare ~baseline:errored ~current:j in
  check_true "status change breaking"
    (d.Golden_diff.severity = Golden_diff.Breaking);
  (* structural: schema change short-circuits *)
  let reschema = update [ "schema" ] (fun _ -> Vjson.Str "rgleak-validate/2") j in
  let d = Golden_diff.compare ~baseline:reschema ~current:j in
  check_true "schema change breaking"
    (d.Golden_diff.severity = Golden_diff.Breaking)

(* the committed baseline must match a fresh run bit for bit *)
let test_committed_baseline () =
  let path = "../../../data/golden/validate_quick.json" in
  if not (Sys.file_exists path) then ()
  else begin
    let baseline = Vjson.parse_file path in
    let current = Experiment.to_json (Lazy.force quick_report) in
    let d = Golden_diff.compare ~baseline ~current in
    if d.Golden_diff.severity <> Golden_diff.Identical then
      Alcotest.failf "committed baseline drifted:\n%s"
        (Format.asprintf "%a" Golden_diff.pp d)
  end

(* ---- determinism: the report is a pure function of (sweep, seed) ---- *)

let tiny_sweep =
  {
    Experiment.sweep_name = "tiny";
    confidence = 0.99;
    budgets = Experiment.quick_sweep.Experiment.budgets;
    points =
      [
        {
          Experiment.label = "tiny";
          n = 100;
          aspect = 1.0;
          family = Rgleak_process.Corr_model.Spherical { dmax = 80.0 };
          p = 0.5;
          mix_name = "asic";
          mix = [ ("INV_X1", 2.0); ("NAND2_X1", 1.0); ("DFF_X1", 1.0) ];
          (* 65 replicas: past the single-domain chunk cap, so jobs 1
             and 3 decompose the MC fill differently *)
          replicas = 65;
        };
      ];
  }

let test_report_jobs_invariant () =
  let run jobs =
    Vjson.to_string (Experiment.to_json (Experiment.run ~jobs ~seed:11 tiny_sweep))
  in
  let r1 = run 1 in
  Alcotest.(check string) "jobs 1 vs 2" r1 (run 2);
  Alcotest.(check string) "jobs 1 vs 3" r1 (run 3)

let test_report_seed_sensitivity () =
  let run seed =
    Vjson.to_string (Experiment.to_json (Experiment.run ~jobs:1 ~seed tiny_sweep))
  in
  check_true "different seeds differ" (run 11 <> run 12)

(* ---- shrinking helpers ---- *)

let test_minimize () =
  (* greedy descent lands on a local minimum: it fails, and none of its
     shrink candidates do *)
  let fails n = n >= 37 in
  let m = minimize ~shrink:(shrink_size ~lo:2) ~fails 500 in
  check_true "minimum still fails" (fails m);
  check_true "minimum is locally minimal"
    (List.for_all (fun c -> not (fails c)) (shrink_size ~lo:2 m));
  check_true "shrunk well below start" (m < 100);
  (* family ranges descend to their floor when the family always fails *)
  let f = Rgleak_process.Corr_model.Gaussian { range = 77.0 } in
  match minimize ~shrink:shrink_family ~fails:(fun _ -> true) f with
  | Rgleak_process.Corr_model.Gaussian { range } ->
    check_close "range at floor" 10.0 range
  | _ -> Alcotest.fail "family changed under shrinking"

let suite =
  ( "validate",
    [
      case "intervals and standard errors" test_intervals;
      case "equivalence gate" test_equivalence_gate;
      case "kurtosis estimator" test_kurtosis;
      case "vjson round-trip" test_vjson_roundtrip;
      case "vjson rejects malformed input" test_vjson_errors;
      case "vjson decodes unicode escapes to UTF-8" test_vjson_unicode_escapes;
      test_vjson_roundtrip_property;
      case "quick sweep passes" test_quick_sweep_passes;
      case "golden self-compare identical" test_golden_self_identical;
      case "golden drift classes" test_golden_drift_classes;
      case "committed baseline identical" test_committed_baseline;
      case "report jobs-invariant" test_report_jobs_invariant;
      case "report seed-sensitive" test_report_seed_sensitivity;
      case "shrinking finds minimal counterexamples" test_minimize;
    ] )
