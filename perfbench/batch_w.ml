(* batch-sweep: one spawned [rgleak batch] over a seeded manifest of 240
   scenarios on a warm cache, plus single-scenario batch commands. *)

module Batch = Rgleak_cache.Batch
module Cache = Rgleak_cache.Cache

let limit_s = 0.4

(* Single-scenario commands after each sweep: light-tier, then exact. *)
let per_pass = 20
let heavy_per_pass = 2

let lines_of text =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' text)

(* Report records (the header line dropped), in manifest order. *)
let records text = List.tl (lines_of text)

let batch_cmd ~cache ~out manifest = [ "batch"; manifest; "--cache-dir"; cache; "--out"; out ]

(* Generated scenarios are all valid inputs, so any error record is a
   failure of the program. *)
let check_records what report =
  let ok r =
    match Rgleak_valid.Vjson.(mem "status" (parse r)) with
    | Some (Rgleak_valid.Vjson.Str "ok") -> true
    | _ | (exception Rgleak_valid.Vjson.Parse_error _) -> false
  in
  List.iter
    (fun r -> ignore (Metrics.attempt (ok r) (what ^ " has an error record: " ^ r)))
    (records report)

let run ~seed ~seconds ~traced =
  let lines = Gen.batch_manifest ~seed in
  let manifest = Common.path "sweep.jsonl" in
  Common.write_file manifest (String.concat "\n" lines ^ "\n");
  (* Set-up: cold passes, each filling its own empty cache; the last
     cache is the warm one and its report the reference. *)
  let cold =
    List.init (if traced then 1 else 2) (fun i ->
        let cache = Common.fresh_dir (Printf.sprintf "cold%d" i) in
        let out = Common.path (Printf.sprintf "cold%d.jsonl" i) in
        let s = Cli_w.run_checked "cold rgleak batch" (batch_cmd ~cache ~out manifest) in
        (s, cache, Common.read_file out))
  in
  let _, warm, reference = List.nth cold (List.length cold - 1) in
  check_records "cold batch report" reference;
  List.iter
    (fun (_, _, r) ->
      ignore (Metrics.attempt (r = reference) "cold batch reports differ"))
    cold;
  let setup = List.map (fun (s, _, _) -> s.Cli_w.wall) cold in
  let record_of = Hashtbl.create 256 in
  List.iter2 (Hashtbl.replace record_of) lines (records reference);
  let size0 = Common.tree_size warm in
  let out = Common.path "warm.jsonl" in
  let warm_pass () =
    let s = Cli_w.run_checked "warm rgleak batch" (batch_cmd ~cache:warm ~out manifest) in
    ignore (Metrics.attempt (Common.read_file out = reference)
              "warm batch report differs from the cold set-up pass");
    ignore (Metrics.attempt (Common.tree_size warm = size0) "warm batch pass grew the cache");
    s
  in
  let single line =
    let m = Common.path "single.jsonl" in
    Common.write_file m (line ^ "\n");
    let s = Cli_w.run_checked "single-scenario rgleak batch" (batch_cmd ~cache:warm ~out m) in
    let ok =
      match records (Common.read_file out) with
      | [ r ] -> r = Hashtbl.find record_of line
      | _ -> false
    in
    ignore (Metrics.attempt ok "single-scenario record differs from the sweep's");
    { s with Cli_w.ok = s.Cli_w.ok && ok }
  in
  if not traced then begin
    let singles = Array.of_list (Gen.batch_singles ~seed ~manifest:lines ~count:(100 * per_pass)) in
    let items =
      Cli_w.timed_loop ~seconds (List.init 100 Fun.id) (fun i ->
          let pass = warm_pass () in
          let pick k = singles.((per_pass * i) + k) in
          let reqs = List.init per_pass (fun k -> single (fst (pick k))) in
          let heavy = List.init heavy_per_pass (fun k -> single (snd (pick k))) in
          (pass, reqs, heavy))
    in
    let passes = List.map (fun (p, _, _) -> p) items in
    let reqs = List.concat_map (fun (_, r, _) -> r) items in
    let heavy = List.concat_map (fun (_, _, h) -> h) items in
    let ok_records = List.length lines in
    Cli_w.report_cli ~setup ~limit_s
      ~scenarios_per_s:
        (float_of_int ok_records
        /. Common.median (List.map (fun s -> s.Cli_w.wall) passes))
      ~cmds:passes ~reqs ~heavy:(List.map (fun s -> s.Cli_w.wall) heavy)
      ~peak_kib:(Cli_w.peak (passes @ reqs @ heavy @ List.map (fun (s, _, _) -> s) cold))
  end
  else begin
    let exec = Layers.cli_exec () in
    let user_wall =
      Common.median (List.init 3 (fun _ -> (warm_pass ()).Cli_w.wall))
    in
    let text = Common.read_file manifest in
    let replica_cache = Common.path "replica-cache" in
    Common.copy_tree warm replica_cache;
    let off_wall, on_wall, snap =
      Layers.passes (fun () ->
          let cache = Cache.open_ ~dir:replica_cache () in
          let scens = Layers.span "batch.parse_s" (fun () -> Batch.parse_manifest text) in
          let engine = Batch.engine ~cache () in
          let outcomes =
            List.map
              (fun s -> Layers.span "batch.run_one_s" (fun () -> Batch.run_one engine s))
              scens
          in
          let report = Layers.span "batch.report_s" (fun () -> Batch.report outcomes) in
          ignore (Metrics.attempt (report = reference) "in-process batch replica differs"))
    in
    let attributed = Layers.attributed () in
    Metrics.set "cache.bytes_read_per_req"
      (float_of_int (Layers.counter snap "cache.bytes_read"));
    let copy = Common.path "probe-cache" in
    Common.copy_tree warm copy;
    let bad =
      Probe.run ~cache_dir:copy ~scratch_dir:(Common.fresh_dir "probe-scratch")
        (List.map (fun l -> (l, Hashtbl.find record_of l)) lines)
    in
    ignore (Metrics.attempt (bad = 0) (Printf.sprintf "%d decomposed replays differ" bad));
    Layers.finish ~user_wall ~attributed ~exec_total:exec ~off_wall ~on_wall snap
  end
