(* Self-tests of the benchmark harness: the reporting rule, seed
   determinism of every generator, that generated manifests are inputs
   the program accepts, and protocol frame round-trips. *)

open Perfbench
module Batch = Rgleak_cache.Batch
module P = Rgleak_serve.Protocol

let floats n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile_rule () =
  let check name n expect =
    Alcotest.(check (option (pair (float 0.0) (float 0.0))))
      name expect (Common.tail_percentile (floats n))
  in
  (* Exactly ten samples beyond p90 of 1..100 (91..100). *)
  check "100 samples -> p90" 100 (Some (0.9, 90.0));
  check "99 samples -> p75" 99 (Some (0.75, 75.0));
  check "1000 samples -> p99" 1000 (Some (0.99, 990.0));
  check "39 samples -> none" 39 None;
  Alcotest.(check (float 0.0)) "nearest-rank median" 50.0 (Common.median (floats 100));
  Alcotest.(check (float 0.0)) "p90 of 10" 9.0 (Common.quantile (floats 10) 0.9);
  Alcotest.(check bool) "empty quantile is nan" true (Float.is_nan (Common.median []))

let estimate_args seed =
  List.map (fun c -> String.concat " " c.Gen.e_args) (Gen.estimate_cmds ~seed ~cycles:3)

let serve_text seed =
  let p = Gen.serve_plan ~seed ~light_s:15.0 in
  String.concat "\n"
    (p.Gen.warm @ p.Gen.heavy
    @ List.map (fun a -> Printf.sprintf "%h %b %s" a.Gen.at a.Gen.fresh a.Gen.line) p.Gen.light)

let test_determinism () =
  List.iter
    (fun seed ->
      let same name f =
        Alcotest.(check bool) (Printf.sprintf "%s, seed %d" name seed) true (f seed = f seed)
      in
      same "batch manifest" (fun s -> Gen.batch_manifest ~seed:s);
      same "batch singles" (fun s ->
          Gen.batch_singles ~seed:s ~manifest:(Gen.batch_manifest ~seed:s) ~count:20);
      same "serve plan" serve_text;
      same "estimate commands" estimate_args;
      same "optimize configs" (fun s -> Gen.optimize_configs ~seed:s))
    [ 0; 1; 42 ];
  Alcotest.(check bool) "seeds differ" false
    (Gen.batch_manifest ~seed:1 = Gen.batch_manifest ~seed:2);
  Alcotest.(check bool) "schedules differ" false (serve_text 1 = serve_text 2)

let parses what lines =
  let scens = Batch.parse_manifest (String.concat "\n" lines) in
  Alcotest.(check int) (what ^ ": every line parsed") (List.length lines) (List.length scens);
  (* The polar tier is valid only when the correlation vanishes inside
     the die; the program answers anything else with invalid input. *)
  List.iter
    (fun s ->
      if s.Batch.s_tier = Batch.Integral_polar then begin
        let corr =
          Rgleak_process.Corr_model.create s.Batch.s_family
            Rgleak_process.Process_param.default_channel_length
        in
        let layout = Probe.layout_of s in
        if
          not
            (Rgleak_core.Estimator_integral.polar_applicable ~corr
               ~width:(Rgleak_circuit.Layout.width layout)
               ~height:(Rgleak_circuit.Layout.height layout))
        then Alcotest.failf "%s: polar tier not applicable to line %d" what s.Batch.s_line
      end)
    scens

let test_manifests_parse () =
  for seed = 0 to 19 do
    let m = Gen.batch_manifest ~seed in
    Alcotest.(check int) "240 scenarios" 240 (List.length m);
    parses "batch manifest" m;
    let p = Gen.serve_plan ~seed ~light_s:15.0 in
    parses "serve warm-up" p.Gen.warm;
    parses "serve heavy" p.Gen.heavy;
    parses "serve light" (List.map (fun a -> a.Gen.line) p.Gen.light);
    Alcotest.(check int) "fixed arrival count" 45 (List.length p.Gen.light);
    Alcotest.(check bool) "arrivals at least min_gap apart" true
      (let ats = List.map (fun a -> a.Gen.at) p.Gen.light in
       fst
         (List.fold_left
            (fun (ok, prev) t -> (ok && t -. prev >= Gen.min_gap -. 1e-9, t))
            (true, 0.0) ats));
    (* The estimate commands' mix/corr arguments are valid inputs too. *)
    parses "estimate mix/corr"
      (List.map
         (fun c ->
           Gen.json_line
             [ ("n", Gen.num_i c.Gen.e_n); ("mix", Gen.str c.Gen.e_mix);
               ("corr", Gen.str c.Gen.e_corr) ])
         (Gen.estimate_cmds ~seed ~cycles:2))
  done

let test_protocol_roundtrip () =
  let p = Gen.serve_plan ~seed:3 ~light_s:15.0 in
  List.iter
    (fun line ->
      let req = { P.op = P.Estimate; body = line ^ "\n" } in
      let frame = P.encode_request req in
      (match P.decode_request frame with
      | P.Got (r, used) ->
        Alcotest.(check int) "whole frame consumed" (String.length frame) used;
        Alcotest.(check string) "body" req.P.body r.P.body;
        Alcotest.(check bool) "op" true (r.P.op = P.Estimate)
      | _ -> Alcotest.fail "request did not decode");
      let resp = { P.status = P.Ok; code = 0; payload = line ^ "\n" } in
      match P.decode_response (P.encode_response resp) with
      | P.Got (r, _) -> Alcotest.(check bool) "response" true (r = resp)
      | _ -> Alcotest.fail "response did not decode")
    (p.Gen.warm @ p.Gen.heavy);
  match P.decode_request (P.encode_request { P.op = P.Ping; body = "" }) with
  | P.Got (r, _) -> Alcotest.(check bool) "ping" true (r.P.op = P.Ping && r.P.body = "")
  | _ -> Alcotest.fail "ping did not decode"

let () =
  Alcotest.run "perfbench"
    [ ( "harness",
        [ Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "seed determinism" `Quick test_determinism;
          Alcotest.test_case "manifests parse" `Quick test_manifests_parse;
          Alcotest.test_case "protocol round-trip" `Quick test_protocol_roundtrip ] ) ]
