(* The content-addressed cache and the batch engine.

   The contract under test: keys are stable across restarts (pure
   content hashes), warm runs replay the cold run's floats bit for bit,
   corruption (on-disk or fault-injected) degrades to a recompute and a
   diagnostic — never a crash or a changed result — and the empty-input
   guards return typed Invalid_input diagnostics. *)

open Rgleak_num
module Cache = Rgleak_cache.Cache
module Memo = Rgleak_cache.Memo
module Batch = Rgleak_cache.Batch
module Characterize = Rgleak_cells.Characterize
module Histogram = Rgleak_circuit.Histogram
module Layout = Rgleak_circuit.Layout
module Placer = Rgleak_circuit.Placer
module Corr_model = Rgleak_process.Corr_model
module Process_param = Rgleak_process.Process_param
module Random_gate = Rgleak_core.Random_gate
module Rg_correlation = Rgleak_core.Rg_correlation
module Estimator_linear = Rgleak_core.Estimator_linear
module Mc_reference = Rgleak_core.Mc_reference
module Experiment = Rgleak_valid.Experiment

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "rgleak_cache_test_%d_%d" (Unix.getpid ()) !n)
    in
    (* Cache.open_ creates directories lazily; no mkdir needed here. *)
    dir

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Guard.Error Invalid_input" name
  | exception Guard.Error (Guard.Invalid_input _) -> ()

(* --- the store ------------------------------------------------------ *)

(* The key is a pure function of the part list: these literals pin the
   hash so a rebuild, a restart or another platform addresses the same
   entries (an accidental algorithm change would orphan every cache). *)
let test_key_stability () =
  Alcotest.(check string)
    "pinned digest" "c899d7cd06102a9d8c7a6ecdb67d783e"
    (Cache.key [ "a"; "bc" ]);
  Alcotest.(check string)
    "pinned digest 2" "56881f02774bf192b185174ec9fa299c"
    (Cache.key [ "ab"; "c" ]);
  Alcotest.(check bool)
    "part boundaries matter" false
    (Cache.key [ "a"; "bc" ] = Cache.key [ "ab"; "c" ]);
  Alcotest.(check string)
    "same parts, same key"
    (Cache.key [ "x"; "y"; "z" ])
    (Cache.key [ "x"; "y"; "z" ])

let test_put_get_counters () =
  let c = Cache.open_ ~dir:(fresh_dir ()) () in
  let key = Cache.key [ "payload" ] in
  Alcotest.(check (option string))
    "miss on empty store" None
    (Cache.get c ~kind:"t" ~version:1 ~key);
  Cache.put c ~kind:"t" ~version:1 ~key "hello";
  Alcotest.(check (option string))
    "hit after put" (Some "hello")
    (Cache.get c ~kind:"t" ~version:1 ~key);
  Alcotest.(check (option string))
    "other version is a different namespace" None
    (Cache.get c ~kind:"t" ~version:2 ~key);
  Alcotest.(check (option string))
    "other kind is a different namespace" None
    (Cache.get c ~kind:"u" ~version:1 ~key);
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 3 s.Cache.misses;
  Alcotest.(check int) "bytes read" 5 s.Cache.bytes_read;
  Alcotest.(check int) "bytes written" 5 s.Cache.bytes_written;
  Alcotest.(check int) "no corruption" 0 s.Cache.corrupt

let corrupt_entry_on_disk dir =
  (* Flip a byte in every stored entry file under [dir]. *)
  let rec walk path =
    if Sys.is_directory path then
      Array.iter (fun f -> walk (Filename.concat path f)) (Sys.readdir path)
    else begin
      let ic = open_in_bin path in
      let s = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
      close_in ic;
      let i = Bytes.length s - 1 in
      Bytes.set s i (if Bytes.get s i = 'x' then 'y' else 'x');
      let oc = open_out_bin path in
      output_string oc (Bytes.to_string s);
      close_out oc
    end
  in
  walk dir

let test_corruption_recovery () =
  let dir = fresh_dir () in
  let diags = ref [] in
  let c = Cache.open_ ~on_corrupt:(fun d -> diags := d :: !diags) ~dir () in
  let key = Cache.key [ "poisoned" ] in
  Cache.put c ~kind:"t" ~version:1 ~key "payload-bytes";
  corrupt_entry_on_disk dir;
  Alcotest.(check (option string))
    "corrupt entry reads as miss" None
    (Cache.get c ~kind:"t" ~version:1 ~key);
  Alcotest.(check int) "corruption counted" 1 (Cache.stats c).Cache.corrupt;
  (match !diags with
  | [ Guard.Invalid_input msg ] ->
    Alcotest.(check bool)
      "diagnostic names the entry" true
      (contains msg "corrupt cache entry")
  | _ -> Alcotest.fail "expected exactly one Invalid_input diagnostic");
  (* The bad entry was deleted: the next read is a plain miss and a
     re-put works again. *)
  Alcotest.(check (option string))
    "entry deleted" None
    (Cache.get c ~kind:"t" ~version:1 ~key);
  Alcotest.(check int) "still one corruption" 1 (Cache.stats c).Cache.corrupt;
  Cache.put c ~kind:"t" ~version:1 ~key "payload-bytes";
  Alcotest.(check (option string))
    "store recovers" (Some "payload-bytes")
    (Cache.get c ~kind:"t" ~version:1 ~key)

let test_fault_site () =
  let c = Cache.open_ ~dir:(fresh_dir ()) () in
  let key = Cache.key [ "fault" ] in
  Cache.put c ~kind:"t" ~version:1 ~key "v";
  Guard.Fault.configure [ { Guard.Fault.site = "cache"; prob = 1.0; seed = 1 } ];
  Fun.protect ~finally:Guard.Fault.clear (fun () ->
      Alcotest.(check (option string))
        "armed cache site forces the corrupt path" None
        (Cache.get c ~kind:"t" ~version:1 ~key));
  Alcotest.(check int) "counted as corrupt" 1 (Cache.stats c).Cache.corrupt

(* --- memoized artifacts -------------------------------------------- *)

let asic_mix =
  [ ("INV_X1", 3.0); ("NAND2_X1", 2.0); ("NOR2_X1", 1.0); ("DFF_X1", 1.0) ]

let build_rgcorr ?cache ~key_parts () =
  let chars = Characterize.default_library () in
  let histogram = Histogram.of_weights asic_mix in
  let p = 0.5 in
  let rg = Random_gate.create ~chars ~histogram ~p () in
  Memo.correlation ?cache ~chars ~rg ~p ~key_parts ()

let test_rgcorr_cold_warm_identical () =
  let c = Cache.open_ ~dir:(fresh_dir ()) () in
  let key_parts = [ "test-rgcorr"; "asic"; "p=0.5" ] in
  let cold = build_rgcorr ~cache:c ~key_parts () in
  let warm = build_rgcorr ~cache:c ~key_parts () in
  Alcotest.(check int) "one miss then one hit" 1 (Cache.stats c).Cache.hits;
  List.iter
    (fun rho_l ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "f bit-identical at rho=%g" rho_l)
        (Rg_correlation.f cold ~rho_l)
        (Rg_correlation.f warm ~rho_l))
    [ 0.0; 0.137; 0.5; 0.83; 1.0 ];
  Alcotest.(check (float 0.0))
    "sigma_bar bit-identical"
    (Rg_correlation.sigma_bar cold)
    (Rg_correlation.sigma_bar warm);
  List.iter
    (fun rho_l ->
      Alcotest.(check (float 0.0))
        "pair covariance bit-identical"
        (Rg_correlation.cell_pair_covariance cold ~ci:0 ~cj:0 ~rho_l)
        (Rg_correlation.cell_pair_covariance warm ~ci:0 ~cj:0 ~rho_l))
    [ 0.25; 0.75 ]

let linear_result ?cache ~dir_tag () =
  ignore dir_tag;
  let chars = Characterize.default_library () in
  let histogram = Histogram.of_weights asic_mix in
  let p = 0.5 in
  let rg = Random_gate.create ~chars ~histogram ~p () in
  let rgcorr =
    Memo.correlation ?cache ~chars ~rg ~p ~key_parts:[ "lin-test" ] ()
  in
  let corr =
    Corr_model.create
      (Corr_model.Spherical { dmax = 120.0 })
      Process_param.default_channel_length
  in
  let layout = Layout.of_dims ~n:300 ~width:70.0 ~height:70.0 in
  Memo.with_linear_memo ?cache ~key_parts:[ "lin-test"; "spherical:120" ]
    ~rows:(Layout.rows layout) ~cols:layout.Layout.cols (fun memo ->
      Estimator_linear.estimate ~memo ~corr ~rgcorr ~layout ())

let test_linear_memo_cold_warm_identical () =
  let c = Cache.open_ ~dir:(fresh_dir ()) () in
  let cold = linear_result ~cache:c ~dir_tag:"a" () in
  let stats_cold = Cache.stats c in
  let warm = linear_result ~cache:c ~dir_tag:"b" () in
  let stats_warm = Cache.stats c in
  Alcotest.(check bool)
    "warm run hit the store" true
    (stats_warm.Cache.hits > stats_cold.Cache.hits);
  Alcotest.(check (float 0.0))
    "mean bit-identical" cold.Estimator_linear.mean warm.Estimator_linear.mean;
  Alcotest.(check (float 0.0))
    "variance bit-identical" cold.Estimator_linear.variance
    warm.Estimator_linear.variance;
  (* And both match the never-cached computation. *)
  let plain = linear_result ~dir_tag:"c" () in
  Alcotest.(check (float 0.0))
    "cached equals uncached" plain.Estimator_linear.mean
    cold.Estimator_linear.mean

let test_poisoned_memo_recovers () =
  let dir = fresh_dir () in
  let c = Cache.open_ ~dir () in
  let cold = linear_result ~cache:c ~dir_tag:"a" () in
  corrupt_entry_on_disk dir;
  let after = linear_result ~cache:c ~dir_tag:"b" () in
  Alcotest.(check bool)
    "corruption detected" true
    ((Cache.stats c).Cache.corrupt > 0);
  Alcotest.(check (float 0.0))
    "recomputed result identical" cold.Estimator_linear.mean
    after.Estimator_linear.mean

let test_characterization_cached () =
  let c = Cache.open_ ~dir:(fresh_dir ()) () in
  let cold = Memo.characterization ~cache:c ~temp_celsius:None () in
  let warm = Memo.characterization ~cache:c ~temp_celsius:None () in
  Alcotest.(check int) "warm hit" 1 (Cache.stats c).Cache.hits;
  Alcotest.(check int) "same cell count" (Array.length cold)
    (Array.length warm);
  Array.iteri
    (fun i cc ->
      let wc = warm.(i) in
      Array.iteri
        (fun s (st : Characterize.state_char) ->
          let wt = wc.Characterize.states.(s) in
          if
            not
              (st.Characterize.mu_analytic = wt.Characterize.mu_analytic
              && st.Characterize.sigma_analytic = wt.Characterize.sigma_analytic
              )
          then
            Alcotest.failf "cell %d state %d: cached moments differ" i s)
        cc.Characterize.states)
    cold

(* A chars entry of format version 1 (which carried the MC cross-check)
   stored under today's key is not served: the kind version moved to 2,
   so the lookup misses, recomputes without MC, and stores a v2 entry. *)
let test_characterization_skips_v1_entry () =
  let c = Cache.open_ ~dir:(fresh_dir ()) () in
  let fresh = Characterize.default_library () in
  let poisoned =
    Array.map
      (fun (ch : Characterize.cell_char) ->
        {
          ch with
          Characterize.states =
            Array.map
              (fun (sc : Characterize.state_char) ->
                {
                  sc with
                  Characterize.mu_analytic = 2.0 *. sc.Characterize.mu_analytic;
                  mc = Some { Characterize.mu_mc = 1.0; sigma_mc = 1.0 };
                })
              ch.Characterize.states;
        })
      fresh
  in
  let v2 = Rgleak_cells.Char_io.to_string poisoned in
  let header = "rgleak-characterization 2\n" in
  let v1 =
    "rgleak-characterization 1\n"
    ^ String.sub v2 (String.length header) (String.length v2 - String.length header)
  in
  let key = Cache.key (Memo.chars_key_parts ~temp_celsius:None) in
  Cache.put c ~kind:"chars" ~version:1 ~key v1;
  let got = Memo.characterization ~cache:c ~temp_celsius:None () in
  Alcotest.(check int) "v1 entry not served" 0 (Cache.stats c).Cache.hits;
  let st = got.(0).Characterize.states.(0) in
  Alcotest.(check (float 0.0))
    "recomputed analytic mean" fresh.(0).Characterize.states.(0).Characterize.mu_analytic
    st.Characterize.mu_analytic;
  Alcotest.(check bool) "recomputed without MC" true (st.Characterize.mc = None);
  Alcotest.(check bool)
    "v2 entry stored" true
    (Cache.get c ~kind:"chars" ~version:2 ~key <> None)

(* --- empty-input guards --------------------------------------------- *)

let test_empty_mix_guard () =
  check_invalid "empty mix" (fun () -> Histogram.of_weights [])

let test_empty_design_guard () =
  let chars = Characterize.default_library () in
  let netlist =
    Rgleak_circuit.Netlist.create ~name:"empty" ~num_primary_inputs:1 [||]
  in
  let layout = Layout.square ~n:4 () in
  let placed = Placer.place ~strategy:Placer.Sequential netlist layout in
  let corr =
    Corr_model.create
      (Corr_model.Spherical { dmax = 120.0 })
      Process_param.default_channel_length
  in
  check_invalid "zero-gate MC design" (fun () ->
      Mc_reference.prepare ~chars ~corr ~p:0.5 placed)

let test_empty_sweep_guard () =
  let sweep = { Experiment.quick_sweep with Experiment.points = [] } in
  check_invalid "empty sweep" (fun () -> Experiment.run ~seed:42 sweep)

(* --- batch manifests ------------------------------------------------ *)

let manifest_line =
  {|{"n": 60, "mix": "INV_X1:1,NOR2_X1:1", "corr": "spherical:120", "tier": "linear", "seed": 3}|}

let test_manifest_errors () =
  check_invalid "empty manifest" (fun () -> Batch.parse_manifest "");
  check_invalid "comments only" (fun () ->
      Batch.parse_manifest "# nothing\n\n# here\n");
  check_invalid "malformed JSON" (fun () -> Batch.parse_manifest "{nope\n");
  check_invalid "unknown field" (fun () ->
      Batch.parse_manifest
        {|{"n": 10, "mix": "INV_X1:1", "corr": "exp:60", "bogus": 1}|});
  check_invalid "unknown cell" (fun () ->
      Batch.parse_manifest {|{"n": 10, "mix": "NOPE_X9:1", "corr": "exp:60"}|});
  check_invalid "empty mix string" (fun () ->
      Batch.parse_manifest {|{"n": 10, "mix": "", "corr": "exp:60"}|});
  check_invalid "zero gates" (fun () ->
      Batch.parse_manifest {|{"n": 0, "mix": "INV_X1:1", "corr": "exp:60"}|});
  check_invalid "width without height" (fun () ->
      Batch.parse_manifest
        {|{"n": 10, "mix": "INV_X1:1", "corr": "exp:60", "width": 40}|});
  check_invalid "unknown tier" (fun () ->
      Batch.parse_manifest
        {|{"n": 10, "mix": "INV_X1:1", "corr": "exp:60", "tier": "warp"}|})

let test_manifest_ids_content_derived () =
  (* The derived id must not depend on the line position: the same
     scenario parsed from line 1 and line 3 gets the same id. *)
  let first = List.hd (Batch.parse_manifest manifest_line) in
  let shifted =
    List.hd (Batch.parse_manifest ("# pad\n\n" ^ manifest_line))
  in
  Alcotest.(check string)
    "id is a pure content hash" first.Batch.s_id shifted.Batch.s_id;
  Alcotest.(check int) "line is tracked" 3 shifted.Batch.s_line;
  Alcotest.(check bool)
    "key parts carry no line info" true
    (Batch.scenario_key_parts first = Batch.scenario_key_parts shifted)

(* A \u-escaped id decodes to UTF-8: the escaped and the raw-UTF-8
   spelling of one manifest line are the same scenario and produce the
   same record, byte for byte. *)
let test_manifest_unicode_escape () =
  let line id =
    Printf.sprintf
      {|{"id": "%s", "n": 40, "mix": "INV_X1:1", "corr": "exp:60", "tier": "linear", "seed": 1}|}
      id
  in
  let escaped = List.hd (Batch.parse_manifest (line {|caf\u00e9|})) in
  let raw = List.hd (Batch.parse_manifest (line "caf\xc3\xa9")) in
  Alcotest.(check string) "escaped id decodes to UTF-8" "caf\xc3\xa9"
    escaped.Batch.s_id;
  match Batch.run [ escaped; raw ] with
  | [ a; b ] ->
    Alcotest.(check string)
      "same record" (Rgleak_obs.Vjson.to_string b.Batch.o_json)
      (Rgleak_obs.Vjson.to_string a.Batch.o_json)
  | _ -> Alcotest.fail "expected two outcomes"

let test_batch_run_and_report () =
  let scenarios = Batch.parse_manifest manifest_line in
  let outcomes = Batch.run scenarios in
  Alcotest.(check int) "all ok" 0 (Batch.exit_code outcomes);
  let report = Batch.report outcomes in
  let lines = String.split_on_char '\n' (String.trim report) in
  Alcotest.(check int) "header + one record" 2 (List.length lines);
  Alcotest.(check bool)
    "header carries the schema" true
    (contains (List.hd lines) "rgleak-batch/1");
  (* Per-scenario failures become error records, not exceptions: the
     polar tier refuses a correlation family with no finite support
     radius, and that surfaces as an invalid-input record (exit class
     2), not a crash. *)
  let bad =
    Batch.parse_manifest
      {|{"n": 40, "mix": "INV_X1:1", "corr": "exp:60", "tier": "polar", "seed": 1}|}
  in
  match Batch.run bad with
  | [ o ] ->
    Alcotest.(check int) "invalid-input class surfaces as exit 2" 2
      (Batch.exit_code [ o ]);
    Alcotest.(check bool)
      "record is an error record" true
      (contains (Rgleak_obs.Vjson.to_string o.Batch.o_json)
         {|"status": "error"|})
  | _ -> Alcotest.fail "expected one outcome"

(* One manifest line per correlation family: the canonical key parts
   and the derived ids are pinned literals, so a change to the spec
   printer (which would orphan every cache entry) fails here. *)
let test_scenario_keys_pinned () =
  List.iter
    (fun (corr, corr_part, id) ->
      let line =
        Printf.sprintf
          {|{"n": 300, "mix": "INV_X1:3,NAND2_X1:2", "corr": "%s", "tier": "linear", "seed": 7}|}
          corr
      in
      let s = List.hd (Batch.parse_manifest line) in
      let parts = Batch.scenario_key_parts s in
      Alcotest.(check bool)
        (corr ^ ": mix part") true
        (List.mem "mix=INV_X1:0x1.8p+1,NAND2_X1:0x1p+1" parts);
      Alcotest.(check bool)
        (corr ^ ": corr part " ^ corr_part)
        true (List.mem corr_part parts);
      Alcotest.(check string) (corr ^ ": derived id") id s.Batch.s_id)
    [
      ("linear:120", "corr=linear:0x1.ep+6", "3ff8dac67c66");
      ("spherical:120", "corr=spherical:0x1.ep+6", "7a1dedc78dc0");
      ("exp:60", "corr=exp:0x1.ep+5", "bca085284041");
      ("gauss:80.5", "corr=gauss:0x1.42p+6", "d54e99c2d8bd");
      ("texp:60:120", "corr=texp:0x1.ep+5:0x1.ep+6", "6558a654de5e");
    ]

(* The CLI's library path (Estimate.context + Estimate.run) and the
   batch engine give bit-identical moments for one scenario with an
   explicit die. *)
let test_cli_batch_equivalence () =
  let mix = "INV_X1:3,NAND2_X1:2,DFF_X1:1" and corr = "spherical:120" in
  let histogram = Histogram.(of_weights (parse_mix mix)) in
  let ctx =
    Rgleak_core.Estimate.context
      ~chars:(Characterize.default_library ())
      ~corr:
        (Corr_model.create (Corr_model.of_spec corr)
           Process_param.default_channel_length)
      ~histogram ()
  in
  let spec =
    { Rgleak_core.Estimate.histogram; n = 400; width = 300.0; height = 240.0 }
  in
  let engine = Batch.engine () in
  List.iter
    (fun (tier, method_) ->
      let r = Rgleak_core.Estimate.run ~method_ ctx spec in
      let line =
        Printf.sprintf
          {|{"n": 400, "mix": "%s", "corr": "%s", "tier": "%s", "width": 300, "height": 240}|}
          mix corr tier
      in
      let o = Batch.run_one engine (List.hd (Batch.parse_manifest line)) in
      let field k =
        match o.Batch.o_json with
        | Rgleak_obs.Vjson.Obj kvs -> (
          match List.assoc_opt k kvs with
          | Some (Rgleak_obs.Vjson.Num x) -> x
          | _ -> Alcotest.failf "%s: record has no %s" tier k)
        | _ -> Alcotest.failf "%s: record is not an object" tier
      in
      let bits name a b =
        Alcotest.(check int64)
          (tier ^ " " ^ name ^ " bit-identical")
          (Int64.bits_of_float a) (Int64.bits_of_float b)
      in
      bits "mean" r.Rgleak_core.Estimate.mean (field "mean");
      bits "std" r.Rgleak_core.Estimate.std (field "std"))
    [
      ("linear", Rgleak_core.Estimate.Linear);
      ("int2d", Rgleak_core.Estimate.Integral_2d);
      ("polar", Rgleak_core.Estimate.Integral_polar);
    ]

(* --- LRU eviction --------------------------------------------------- *)

(* One entry's on-disk footprint, measured rather than assumed, so the
   cap arithmetic below tracks any header format change. *)
let entry_size () =
  let c = Cache.open_ ~cap_bytes:max_int ~dir:(fresh_dir ()) () in
  Cache.put c ~kind:"k" ~version:1 ~key:(Cache.key [ "probe" ])
    (String.make 100 'p');
  Cache.total_bytes c

let test_lru_eviction_under_cap () =
  let sz = entry_size () in
  let c = Cache.open_ ~cap_bytes:(2 * sz) ~dir:(fresh_dir ()) () in
  let key i = Cache.key [ string_of_int i ] in
  let put i = Cache.put c ~kind:"k" ~version:1 ~key:(key i) (String.make 100 'p')
  and get i = Cache.get c ~kind:"k" ~version:1 ~key:(key i) in
  put 1;
  put 2;
  Alcotest.(check int) "two entries fit the cap" (2 * sz) (Cache.total_bytes c);
  put 3;
  (* Coldest (1) evicted, newest exempt. *)
  Alcotest.(check bool) "coldest entry evicted" true (get 1 = None);
  Alcotest.(check bool) "warm entry kept" true (get 2 <> None);
  Alcotest.(check bool) "new entry kept" true (get 3 <> None);
  let s = Cache.stats c in
  Alcotest.(check int) "one eviction counted" 1 s.Cache.evictions;
  Alcotest.(check int) "evicted bytes counted" sz s.Cache.bytes_evicted;
  Alcotest.(check int) "total back under cap" (2 * sz) (Cache.total_bytes c)

let test_lru_recency_survival () =
  let sz = entry_size () in
  let c = Cache.open_ ~cap_bytes:(2 * sz) ~dir:(fresh_dir ()) () in
  let key i = Cache.key [ string_of_int i ] in
  let put i = Cache.put c ~kind:"k" ~version:1 ~key:(key i) (String.make 100 'p')
  and get i = Cache.get c ~kind:"k" ~version:1 ~key:(key i) in
  put 1;
  put 2;
  ignore (get 1);
  (* A hit refreshes recency: now 2 is the coldest. *)
  put 3;
  Alcotest.(check bool) "recently-hit entry survives" true (get 1 <> None);
  Alcotest.(check bool) "stale entry evicted" true (get 2 = None);
  Alcotest.(check bool) "new entry kept" true (get 3 <> None)

let test_lru_keep_exempt_and_complete_reads () =
  (* A cap smaller than one entry still admits the entry just written
     (eviction never selects it), and every hit returns the complete
     payload even as writes evict around it — the "never evicted
     mid-read" contract through a single handle. *)
  let c = Cache.open_ ~cap_bytes:1 ~dir:(fresh_dir ()) () in
  let payload i = String.init 2048 (fun j -> Char.chr ((i + j) mod 256)) in
  let key i = Cache.key [ "p"; string_of_int i ] in
  for i = 1 to 4 do
    Cache.put c ~kind:"k" ~version:1 ~key:(key i) (payload i);
    (match Cache.get c ~kind:"k" ~version:1 ~key:(key i) with
    | Some p ->
      Alcotest.(check string)
        (Printf.sprintf "hit %d returns the complete payload" i)
        (payload i) p
    | None -> Alcotest.failf "entry %d missing right after its put" i);
    (* Everything but the newest write has been evicted. *)
    if i > 1 then
      Alcotest.(check bool)
        "previous entry evicted" true
        (Cache.get c ~kind:"k" ~version:1 ~key:(key (i - 1)) = None)
  done;
  Alcotest.(check int) "three evictions" 3 (Cache.stats c).Cache.evictions

let test_lru_index_survives_reopen () =
  let dir = fresh_dir () in
  let c = Cache.open_ ~cap_bytes:max_int ~dir () in
  Cache.put c ~kind:"k" ~version:1 ~key:(Cache.key [ "a" ]) "one";
  Cache.put c ~kind:"k" ~version:1 ~key:(Cache.key [ "b" ]) "two";
  let total = Cache.total_bytes c in
  Alcotest.(check bool) "nonzero total" true (total > 0);
  let c2 = Cache.open_ ~cap_bytes:max_int ~dir () in
  Alcotest.(check int) "reopened handle re-indexes the entries" total
    (Cache.total_bytes c2);
  (* An uncapped handle keeps no index at all. *)
  let c3 = Cache.open_ ~dir () in
  Alcotest.(check int) "uncapped handle keeps no index" 0 (Cache.total_bytes c3)

(* --- the engine's bounded tables ------------------------------------ *)

let record o = Rgleak_obs.Vjson.to_string o.Batch.o_json

let scenario ?temp ~mix ~seed () =
  List.hd
    (Batch.parse_manifest
       (Printf.sprintf
          {|{"n": 200, "mix": "%s", "corr": "spherical:100", "tier": "int2d", "seed": %d%s}|}
          mix seed
          (match temp with
          | Some t -> Printf.sprintf {|, "temp": %d|} t
          | None -> "")))

(* More distinct contexts and temperatures than the caps: the tables
   never outgrow them, evicting a characterization takes its contexts
   along, and evicted scenarios come back bit-identical to a fresh
   run. *)
let test_engine_tables_bounded () =
  let e = Batch.engine () in
  let run s =
    let o = Batch.run_one e s in
    Alcotest.(check int) "scenario ok" 0 o.Batch.o_code;
    let st = Batch.engine_stats e in
    if st.Batch.es_chars > Batch.max_chars then
      Alcotest.failf "%d characterizations held, cap %d" st.Batch.es_chars
        Batch.max_chars;
    if st.Batch.es_contexts > Batch.max_contexts then
      Alcotest.failf "%d contexts held, cap %d" st.Batch.es_contexts
        Batch.max_contexts;
    o
  in
  let hot = scenario ~temp:25 ~mix:"INV_X1:1" ~seed:1 () in
  let first = scenario ~mix:"INV_X1:1,NAND2_X1:1" ~seed:2 () in
  let hot_record = record (run hot) in
  let first_record = record (run first) in
  for w = 2 to Batch.max_contexts + 6 do
    ignore
      (run (scenario ~mix:(Printf.sprintf "INV_X1:%d,NAND2_X1:1" w) ~seed:w ()))
  done;
  Alcotest.(check int)
    "context table full" Batch.max_contexts
    (Batch.engine_stats e).Batch.es_contexts;
  (* Four more temperatures: the third evicts the 25 °C
     characterization, the fourth the default one with its contexts. *)
  List.iter
    (fun t -> ignore (run (scenario ~temp:t ~mix:"INV_X1:1" ~seed:t ())))
    [ 45; 65; 85; 105 ];
  let st = Batch.engine_stats e in
  Alcotest.(check int) "characterizations at the cap" Batch.max_chars
    st.Batch.es_chars;
  Alcotest.(check int) "only the hot temperatures' contexts left" 4
    st.Batch.es_contexts;
  Alcotest.(check bool) "evictions counted" true (st.Batch.es_evictions > 0);
  List.iter
    (fun (name, s, before) ->
      let again = record (run s) in
      Alcotest.(check string) (name ^ ": same record after eviction") before
        again;
      match Batch.run [ s ] with
      | [ o ] ->
        Alcotest.(check string) (name ^ ": equals a fresh run") (record o)
          again
      | _ -> Alcotest.fail "expected one outcome")
    [ ("evicted context", first, first_record);
      ("evicted characterization", hot, hot_record) ]

(* A scenario whose context build fails (an injected pool fault during
   characterization) leaves no entry behind; the identical scenario
   then recomputes and succeeds. *)
let test_engine_failed_build_leaves_no_entry () =
  let e = Batch.engine () in
  let s = scenario ~temp:60 ~mix:"INV_X1:2,NOR2_X1:1" ~seed:5 () in
  Guard.Fault.configure
    [ { Guard.Fault.site = "parallel"; prob = 1.0; seed = 1 } ];
  let failed =
    Fun.protect ~finally:Guard.Fault.clear (fun () -> Batch.run_one e s)
  in
  Alcotest.(check int) "faulted scenario is a numeric error record" 3
    failed.Batch.o_code;
  let st = Batch.engine_stats e in
  Alcotest.(check int) "no characterization kept" 0 st.Batch.es_chars;
  Alcotest.(check int) "no context kept" 0 st.Batch.es_contexts;
  let ok = Batch.run_one e s in
  Alcotest.(check int) "identical request recomputes and succeeds" 0
    ok.Batch.o_code;
  match Batch.run [ s ] with
  | [ o ] ->
    Alcotest.(check string) "equals a fresh run" (record o) (record ok)
  | _ -> Alcotest.fail "expected one outcome"

(* Strings must be valid UTF-8 and numbers must follow RFC 8259, in the
   parser and so in every manifest; the printer writes U+FFFD for bytes
   that do not decode, so its output always parses. *)
let test_vjson_utf8_and_numbers () =
  let module Vjson = Rgleak_obs.Vjson in
  let rejects name text =
    match Vjson.parse text with
    | _ -> Alcotest.failf "%s: %S parsed" name text
    | exception Vjson.Parse_error _ -> ()
  in
  List.iter
    (fun (name, text) -> rejects name text)
    [
      ("lone 0xff", "\"a\xffb\"");
      ("truncated sequence", "\"\xc3\"");
      ("overlong encoding", "\"\xc0\xaf\"");
      ("encoded surrogate", "\"\xed\xa0\x80\"");
      ("leading plus", "+4e1");
      ("bare fraction", ".1e1");
      ("trailing dot", "1.");
      ("leading zero", "01");
      ("empty exponent", "1e");
      ("lone minus", "-");
      ("infinity", "Infinity");
    ];
  List.iter
    (fun (text, v) ->
      Alcotest.(check (float 0.0)) text v (Vjson.num (Vjson.parse text)))
    [ ("0", 0.0); ("-0.5", -0.5); ("4e1", 40.0); ("1E+2", 100.0);
      ("2.5e-3", 2.5e-3); ("-12", -12.0) ];
  Alcotest.(check string) "valid UTF-8 passes through" "caf\xc3\xa9"
    (Vjson.str (Vjson.parse "\"caf\xc3\xa9\""));
  let printed = Vjson.to_string (Vjson.Str "a\xffb\xc3") in
  Alcotest.(check string) "invalid bytes print as U+FFFD"
    "\"a\xef\xbf\xbdb\xef\xbf\xbd\"" printed;
  Alcotest.(check string) "the printed string parses back" "a\xef\xbf\xbdb\xef\xbf\xbd"
    (Vjson.str (Vjson.parse printed));
  (* In a manifest both are invalid input naming the line: exit 2. *)
  let ok = {|{"n": 40, "mix": "INV_X1:1", "corr": "exp:60"}|} in
  List.iter
    (fun (name, bad) ->
      match Batch.parse_manifest (ok ^ "\n" ^ bad ^ "\n") with
      | _ -> Alcotest.failf "%s: manifest accepted" name
      | exception Guard.Error (Guard.Invalid_input msg as d) ->
        Alcotest.(check int) (name ^ " exits 2") 2 (Guard.exit_code d);
        if not (contains msg "manifest line 2: ") then
          Alcotest.failf "%s: diagnostic does not name line 2: %s" name msg)
    [
      ("invalid UTF-8 id",
       "{\"id\": \"a\xffb\", \"n\": 40, \"mix\": \"INV_X1:1\", \"corr\": \"exp:60\"}");
      ("leading plus and bare fraction",
       {|{"n": +4e1, "mix": "INV_X1:1", "corr": "exp:60", "seed": .1e1}|});
    ]

let suite =
  ( "cache",
    [
      Alcotest.test_case "key is stable and boundary-safe" `Quick
        test_key_stability;
      Alcotest.test_case "put/get round trip with counters" `Quick
        test_put_get_counters;
      Alcotest.test_case "corrupt entries are deleted and reported" `Quick
        test_corruption_recovery;
      Alcotest.test_case "the cache fault site forces recompute" `Quick
        test_fault_site;
      Alcotest.test_case "rgcorr tables reload bit-identically" `Quick
        test_rgcorr_cold_warm_identical;
      Alcotest.test_case "linear F memo reloads bit-identically" `Quick
        test_linear_memo_cold_warm_identical;
      Alcotest.test_case "poisoned memo entry recovers" `Quick
        test_poisoned_memo_recovers;
      Alcotest.test_case "characterization round-trips through the cache"
        `Quick test_characterization_cached;
      Alcotest.test_case "a chars v1 entry is not served as v2" `Quick
        test_characterization_skips_v1_entry;
      Alcotest.test_case "empty mix is Invalid_input" `Quick
        test_empty_mix_guard;
      Alcotest.test_case "zero-gate MC design is Invalid_input" `Quick
        test_empty_design_guard;
      Alcotest.test_case "empty sweep is Invalid_input" `Quick
        test_empty_sweep_guard;
      Alcotest.test_case "manifest errors are Invalid_input" `Quick
        test_manifest_errors;
      Alcotest.test_case "scenario ids derive from content, not position"
        `Quick test_manifest_ids_content_derived;
      Alcotest.test_case "an escaped manifest id equals its UTF-8 spelling"
        `Quick test_manifest_unicode_escape;
      Alcotest.test_case "batch runs and reports" `Quick
        test_batch_run_and_report;
      Alcotest.test_case "LRU evicts the coldest past the cap" `Quick
        test_lru_eviction_under_cap;
      Alcotest.test_case "LRU hits refresh recency" `Quick
        test_lru_recency_survival;
      Alcotest.test_case "LRU never evicts the entry just written or mid-read"
        `Quick test_lru_keep_exempt_and_complete_reads;
      Alcotest.test_case "LRU index survives reopen" `Quick
        test_lru_index_survives_reopen;
      Alcotest.test_case "scenario keys and ids are pinned" `Quick
        test_scenario_keys_pinned;
      Alcotest.test_case "CLI library path and batch agree bit for bit"
        `Quick test_cli_batch_equivalence;
      Alcotest.test_case "engine tables stay within their caps" `Quick
        test_engine_tables_bounded;
      Alcotest.test_case "a failed context build leaves no engine entry"
        `Quick test_engine_failed_build_leaves_no_entry;
      Alcotest.test_case "JSON strings are UTF-8, numbers RFC 8259" `Quick
        test_vjson_utf8_and_numbers;
    ] )
