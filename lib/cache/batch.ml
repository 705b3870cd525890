module Guard = Rgleak_num.Guard
module Rng = Rgleak_num.Rng
module Parallel = Rgleak_num.Parallel
module Corr_model = Rgleak_process.Corr_model
module Process_param = Rgleak_process.Process_param
module Characterize = Rgleak_cells.Characterize
module Signal_prob = Rgleak_cells.Signal_prob
module Histogram = Rgleak_circuit.Histogram
module Layout = Rgleak_circuit.Layout
module Generator = Rgleak_circuit.Generator
module Placer = Rgleak_circuit.Placer
module Random_gate = Rgleak_core.Random_gate
module Estimate = Rgleak_core.Estimate
module Estimator_exact = Rgleak_core.Estimator_exact
module Mc_reference = Rgleak_core.Mc_reference
module Tail = Rgleak_core.Tail
module Vt_correction = Rgleak_core.Vt_correction
module Vjson = Rgleak_obs.Vjson
module Obs = Rgleak_obs.Obs

type tier = Auto | Linear | Integral_2d | Integral_polar | Exact | Mc | Tail

type scenario = {
  s_id : string;
  s_line : int;
  s_n : int;
  s_mix : (string * float) list;
  s_family : Corr_model.wid_family;
  s_p : float option;
  s_tier : tier;
  s_seed : int;
  s_aspect : float;
  s_dims : (float * float) option;
  s_vt : bool;
  s_replicas : int;
  s_temp : float option;
  s_budget : float option;
  s_shift : float option;
}

let tier_name = function
  | Auto -> "auto"
  | Linear -> "linear"
  | Integral_2d -> "int2d"
  | Integral_polar -> "polar"
  | Exact -> "exact"
  | Mc -> "mc"
  | Tail -> "tail"

let () =
  Obs.declare_hist ~owner:"batch" "batch.scenario_s";
  List.iter
    (fun t -> Obs.declare_hist ~owner:"batch" ("batch.tier." ^ t ^ "_s"))
    [ "auto"; "linear"; "int2d"; "polar"; "exact"; "mc"; "tail" ]

(* Every manifest diagnostic names its line: [parse_manifest] adds the
   prefix to whatever [Invalid_input] a line raises. *)
let fail fmt = Printf.ksprintf Guard.invalid fmt

let tier_of_name = function
  | "auto" -> Auto
  | "linear" -> Linear
  | "int2d" -> Integral_2d
  | "polar" -> Integral_polar
  | "exact" -> Exact
  | "mc" -> Mc
  | "tail" -> Tail
  | s ->
    fail "unknown tier %S (want auto, linear, int2d, polar, exact, mc or \
          tail)"
      s

(* Canonical spellings use hex floats so a key never depends on decimal
   rendering quirks. *)
let hex = Printf.sprintf "%h"

let mix_canon mix =
  List.sort compare mix
  |> List.map (fun (name, w) -> Printf.sprintf "%s:%h" name w)
  |> String.concat ","

let p_canon = function None -> "auto" | Some p -> hex p

let geom_canon s =
  match s.s_dims with
  | Some (w, h) -> Printf.sprintf "dims:%h:%h" w h
  | None -> Printf.sprintf "aspect:%h" s.s_aspect

let scenario_key_parts s =
  Memo.chars_key_parts ~temp_celsius:s.s_temp
  @ [
      "mix=" ^ mix_canon s.s_mix;
      "corr=" ^ Corr_model.to_spec ~num:hex s.s_family;
      "p=" ^ p_canon s.s_p;
      Printf.sprintf "n=%d" s.s_n;
      "geom=" ^ geom_canon s;
      "tier=" ^ tier_name s.s_tier;
      Printf.sprintf "seed=%d" s.s_seed;
      Printf.sprintf "vt=%b" s.s_vt;
    ]
  @ (match s.s_tier with
    | Mc -> [ Printf.sprintf "replicas=%d" s.s_replicas ]
    | Tail ->
      [
        Printf.sprintf "replicas=%d" s.s_replicas;
        (match s.s_budget with
        | Some b -> Printf.sprintf "budget=%h" b
        | None -> "budget=none");
        (match s.s_shift with
        | Some d -> Printf.sprintf "shift=%h" d
        | None -> "shift=auto");
      ]
    | _ -> [])

let derived_id s = String.sub (Cache.key (scenario_key_parts s)) 0 12

(* --- manifest parsing ----------------------------------------------- *)

let known_fields =
  [
    "id"; "n"; "mix"; "corr"; "p"; "tier"; "seed"; "aspect"; "width";
    "height"; "vt"; "replicas"; "temp"; "budget"; "shift";
  ]

let parse_scenario ~line json =
  let fields =
    match json with
    | Vjson.Obj kvs -> kvs
    | _ -> fail "expected a JSON object"
  in
  List.iter
    (fun (k, _) ->
      if not (List.mem k known_fields) then
        fail "unknown field %S (known: %s)" k
          (String.concat ", " known_fields))
    fields;
  let field k = List.assoc_opt k fields in
  let str k v =
    match v with
    | Vjson.Str s -> s
    | _ -> fail "field %S must be a string" k
  in
  let num k v =
    match v with
    | Vjson.Num x when Float.is_finite x -> x
    | _ -> fail "field %S must be a finite number" k
  in
  let int k v =
    let x = num k v in
    if Float.is_integer x then int_of_float x
    else fail "field %S must be an integer" k
  in
  let required k =
    match field k with
    | Some v -> v
    | None -> fail "missing required field %S" k
  in
  let n = int "n" (required "n") in
  if n < 1 then fail "n must be at least 1";
  let s_mix = Histogram.parse_mix (str "mix" (required "mix")) in
  let s_family = Corr_model.of_spec (str "corr" (required "corr")) in
  let s_p =
    Option.map
      (fun v ->
        let p = num "p" v in
        if p < 0.0 || p > 1.0 then fail "p must be in [0, 1]";
        p)
      (field "p")
  in
  let s_tier =
    match field "tier" with
    | None -> Auto
    | Some v -> tier_of_name (str "tier" v)
  in
  let s_seed = match field "seed" with None -> 0 | Some v -> int "seed" v in
  let s_aspect =
    match field "aspect" with
    | None -> 1.0
    | Some v ->
      let a = num "aspect" v in
      if a <= 0.0 then fail "aspect must be positive";
      a
  in
  let dim k =
    Option.map
      (fun v ->
        let d = num k v in
        if d <= 0.0 then fail "%s must be positive" k;
        d)
      (field k)
  in
  let s_dims =
    match (dim "width", dim "height") with
    | Some w, Some h -> Some (w, h)
    | None, None -> None
    | _ -> fail "width and height must be given together"
  in
  let s_vt =
    match field "vt" with
    | None -> false
    | Some (Vjson.Bool b) -> b
    | Some _ -> fail "field \"vt\" must be a boolean"
  in
  let s_replicas =
    match field "replicas" with
    | None -> 400
    | Some v ->
      let r = int "replicas" v in
      if r < 2 then fail "replicas must be at least 2";
      r
  in
  let s_temp = Option.map (num "temp") (field "temp") in
  (* Tail-only fields: [budget] (µA, required for the tail tier) and
     [shift] (nm, optional manual override of the calibrated shift). *)
  let s_budget =
    Option.map
      (fun v ->
        let b = num "budget" v in
        if not (b > 0.0) then fail "budget must be positive";
        b)
      (field "budget")
  in
  let s_shift = Option.map (num "shift") (field "shift") in
  (match s_tier with
  | Tail ->
    if s_budget = None then
      fail "tail tier requires a budget field (uA)"
  | _ ->
    if s_budget <> None then
      fail "field \"budget\" only applies to the tail tier";
    if s_shift <> None then
      fail "field \"shift\" only applies to the tail tier");
  let s =
    {
      s_id = "";
      s_line = line;
      s_n = n;
      s_mix;
      s_family;
      s_p;
      s_tier;
      s_seed;
      s_aspect;
      s_dims;
      s_vt;
      s_replicas;
      s_temp;
      s_budget;
      s_shift;
    }
  in
  let s_id =
    match field "id" with
    | Some v ->
      let id = str "id" v in
      if id = "" then fail "empty id" else id
    | None -> derived_id s
  in
  { s with s_id }

let parse_manifest text =
  let scenarios = ref [] in
  String.split_on_char '\n' text
  |> List.iteri (fun i raw ->
         let line = i + 1 in
         let trimmed = String.trim raw in
         if trimmed <> "" && trimmed.[0] <> '#' then
           let scenario =
             try
               parse_scenario ~line
                 (try Vjson.parse trimmed
                  with Vjson.Parse_error msg -> fail "malformed JSON (%s)" msg)
             with Guard.Error (Guard.Invalid_input msg) ->
               fail "manifest line %d: %s" line msg
           in
           scenarios := scenario :: !scenarios);
  match List.rev !scenarios with
  | [] -> Guard.invalid "empty manifest: no scenarios to run"
  | scenarios -> scenarios

(* --- execution ------------------------------------------------------- *)

(* The engine's in-memory tables are small LRUs: a daemon lives for many
   requests, and a client can send any temperature and any mix.  Keys
   are the same canonical parts the disk cache addresses entries by, so
   a table hit returns exactly the bits a recompute (or a disk hit)
   would.  Recency is a stamp from a per-table clock; eviction scans for
   the oldest stamp, which is cheap at these caps. *)
let max_chars = 4
let max_contexts = 64

module Lru = struct
  type 'a t = {
    cap : int;
    tbl : (string, 'a * int ref) Hashtbl.t;
    mutable clock : int;
  }

  let create cap = { cap; tbl = Hashtbl.create cap; clock = 0 }
  let length t = Hashtbl.length t.tbl

  let tick t =
    t.clock <- t.clock + 1;
    t.clock

  let find t k =
    match Hashtbl.find_opt t.tbl k with
    | Some (v, stamp) ->
      stamp := tick t;
      Some v
    | None -> None

  (* Inserts [k] and returns the key evicted to stay within the cap. *)
  let add t k v =
    Hashtbl.replace t.tbl k (v, ref (tick t));
    if Hashtbl.length t.tbl <= t.cap then None
    else
      let oldest, _ =
        Hashtbl.fold
          (fun k (_, s) (ok, os) -> if !s < os then (k, !s) else (ok, os))
          t.tbl ("", max_int)
      in
      Hashtbl.remove t.tbl oldest;
      Some oldest

  (* Drops every entry satisfying [p]; returns how many went. *)
  let drop_if t p =
    let before = Hashtbl.length t.tbl in
    Hashtbl.filter_map_inplace
      (fun _ ((v, _) as e) -> if p v then None else Some e)
      t.tbl;
    before - Hashtbl.length t.tbl
end

type ctx_entry = {
  e_chars : Characterize.cell_char array;
  e_chars_key : string;  (** the [chars_tbl] key of [e_chars] *)
  e_histogram : Histogram.t;
  e_p : float;
  e_rgcorr : Rgleak_core.Rg_correlation.t;
  e_parts : string list;  (** cache key parts of the structure *)
}

type state = {
  cache : Cache.t option;
  chars_tbl : Characterize.cell_char array Lru.t;
  ctx_tbl : ctx_entry Lru.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let hit state =
  state.hits <- state.hits + 1;
  Obs.count "batch.engine.hits" 1

let miss state =
  state.misses <- state.misses + 1;
  Obs.count "batch.engine.misses" 1

let evicted state k =
  state.evictions <- state.evictions + k;
  Obs.count "batch.engine.evictions" k

let chars_key ~temp_celsius =
  String.concat "\x00" (Memo.chars_key_parts ~temp_celsius)

(* Every context holds its characterization, so evicting a
   characterization also evicts the contexts built on it: at most
   [max_chars] characterizations stay reachable from the engine. *)
let chars_for state ~temp_celsius =
  let k = chars_key ~temp_celsius in
  match Lru.find state.chars_tbl k with
  | Some chars ->
    hit state;
    chars
  | None ->
    miss state;
    let chars = Memo.characterization ?cache:state.cache ~temp_celsius () in
    (match Lru.add state.chars_tbl k chars with
    | Some old ->
      evicted state
        (1 + Lru.drop_if state.ctx_tbl (fun e -> e.e_chars_key = old))
    | None -> ());
    chars

(* Nothing is inserted until the whole context is built, so a scenario
   that fails mid-build leaves no entry behind. *)
let ctx_for state scen =
  let parts =
    Memo.chars_key_parts ~temp_celsius:scen.s_temp
    @ [
        "mix=" ^ mix_canon scen.s_mix;
        "p=" ^ p_canon scen.s_p;
        "mode=analytic";
        "mapping=exact";
      ]
  in
  let k = String.concat "\x00" parts in
  match Lru.find state.ctx_tbl k with
  | Some e ->
    hit state;
    (* Keep the characterization as recent as its hottest context. *)
    ignore (Lru.find state.chars_tbl e.e_chars_key);
    e
  | None ->
    miss state;
    let e_chars = chars_for state ~temp_celsius:scen.s_temp in
    let e_histogram = Histogram.of_weights scen.s_mix in
    let e_p =
      match scen.s_p with
      | Some p -> p
      | None ->
        Signal_prob.maximizing_p e_chars
          ~weights:(Histogram.to_array e_histogram)
    in
    let rg = Random_gate.create ~chars:e_chars ~histogram:e_histogram ~p:e_p () in
    let e_rgcorr =
      Memo.correlation ?cache:state.cache ~chars:e_chars ~rg ~p:e_p
        ~key_parts:parts ()
    in
    let e =
      {
        e_chars;
        e_chars_key = chars_key ~temp_celsius:scen.s_temp;
        e_histogram;
        e_p;
        e_rgcorr;
        e_parts = parts;
      }
    in
    if Lru.add state.ctx_tbl k e <> None then evicted state 1;
    e

let layout_of scen =
  let width, height =
    match scen.s_dims with
    | Some (w, h) -> (w, h)
    | None ->
      (* Near-square site grid at the default 4 µm pitch, like the
         validation experiments: area = 16·n µm². *)
      let area = 16.0 *. float_of_int scen.s_n in
      (sqrt (area *. scen.s_aspect), sqrt (area /. scen.s_aspect))
  in
  Layout.of_dims ~n:scen.s_n ~width ~height

(* Placement/MC seeds are pure functions of the scenario's own seed
   field (same derivation pattern as the validation experiments), never
   of its manifest position — that is what makes records invariant
   under manifest reordering. *)
let mc_seed scen = scen.s_seed + 104729

let placed_of scen ~histogram layout =
  let rng = Rng.stream ~seed:scen.s_seed 0 in
  let netlist =
    Generator.random_netlist ~histogram ~n:scen.s_n ~rng ()
  in
  Placer.place ~strategy:Placer.Random ~rng netlist layout

let ok_record scen ~p ~layout ?replicas ~mean ~std ~method_used () =
  let base =
    [
      ("id", Vjson.Str scen.s_id);
      ("status", Vjson.Str "ok");
      ("tier", Vjson.Str (tier_name scen.s_tier));
      ("n", Vjson.Num (float_of_int scen.s_n));
      ("seed", Vjson.Num (float_of_int scen.s_seed));
      ("p", Vjson.Num p);
      ("width", Vjson.Num (Layout.width layout));
      ("height", Vjson.Num (Layout.height layout));
      ("mean", Vjson.Num mean);
      ("std", Vjson.Num std);
      ("method", Vjson.Str method_used);
    ]
  in
  let extra =
    match replicas with
    | Some r -> [ ("replicas", Vjson.Num (float_of_int r)) ]
    | None -> []
  in
  Vjson.Obj (base @ extra)

let run_scenario state scen =
  let ctx_e = ctx_for state scen in
  let corr =
    Corr_model.create scen.s_family Process_param.default_channel_length
  in
  let layout = layout_of scen in
  match scen.s_tier with
  | (Auto | Linear | Integral_2d | Integral_polar) as t ->
    let spec =
      {
        Estimate.histogram = ctx_e.e_histogram;
        n = scen.s_n;
        width = Layout.width layout;
        height = Layout.height layout;
      }
    in
    let method_ =
      match t with
      | Auto -> Estimate.Auto
      | Linear -> Estimate.Linear
      | Integral_2d -> Estimate.Integral_2d
      | Integral_polar -> Estimate.Integral_polar
      | Exact | Mc | Tail -> assert false
    in
    let ctx =
      Estimate.context_with ~corr ~rgcorr:ctx_e.e_rgcorr
        ~histogram:ctx_e.e_histogram ~p:ctx_e.e_p ()
    in
    let run_est lin_memo =
      Estimate.run ?lin_memo ~method_ ~with_vt:scen.s_vt ctx spec
    in
    (* Mirror Estimate.run's Auto rule: the F memo only matters when
       the linear tier will actually execute. *)
    let uses_linear = t = Linear || (t = Auto && scen.s_n <= 2000) in
    let r =
      if uses_linear then
        let key_parts =
          ctx_e.e_parts
          @ [
              "corr=" ^ Corr_model.to_spec ~num:hex scen.s_family;
              Printf.sprintf "site=%h:%h" layout.Layout.site_w
                layout.Layout.site_h;
            ]
        in
        Memo.with_linear_memo ?cache:state.cache ~key_parts
          ~rows:(Layout.rows layout) ~cols:layout.Layout.cols (fun memo ->
            run_est (Some memo))
      else run_est None
    in
    ok_record scen ~p:ctx_e.e_p ~layout ~mean:r.Estimate.mean
      ~std:r.Estimate.std ~method_used:r.Estimate.method_used ()
  | Exact ->
    let placed = placed_of scen ~histogram:ctx_e.e_histogram layout in
    let r = Estimator_exact.estimate ~corr ~rgcorr:ctx_e.e_rgcorr placed in
    let mean =
      if scen.s_vt then
        r.Estimator_exact.mean *. Vt_correction.mean_factor ()
      else r.Estimator_exact.mean
    in
    ok_record scen ~p:ctx_e.e_p ~layout ~mean ~std:r.Estimator_exact.std
      ~method_used:"exact pairwise (O(n^2))" ()
  | Mc ->
    let placed = placed_of scen ~histogram:ctx_e.e_histogram layout in
    let mc =
      Mc_reference.prepare ~chars:ctx_e.e_chars ~corr ~p:ctx_e.e_p placed
    in
    let mean, std =
      Mc_reference.moments_stream mc ~seed:(mc_seed scen)
        ~count:scen.s_replicas
    in
    ok_record scen ~p:ctx_e.e_p ~layout ~replicas:scen.s_replicas ~mean ~std
      ~method_used:"monte-carlo reference" ()
  | Tail ->
    let placed = placed_of scen ~histogram:ctx_e.e_histogram layout in
    let mc =
      Mc_reference.prepare ~chars:ctx_e.e_chars ~corr ~p:ctx_e.e_p placed
    in
    let budget_na =
      match scen.s_budget with
      | Some b -> b *. 1000.0 (* manifest budgets are µA; totals are nA *)
      | None -> assert false (* enforced at parse time *)
    in
    let delta =
      match scen.s_shift with
      | Some d -> d
      | None -> Mc_reference.calibrate_shift mc ~budget:budget_na
    in
    let shift = Mc_reference.uniform_shift mc ~delta in
    let r =
      Tail.estimate ~mc ~budget:budget_na ~shift ~seed:(mc_seed scen)
        ~replicas:scen.s_replicas ()
    in
    let quantile name level =
      match
        List.find_opt (fun (q : Tail.quantile) -> q.Tail.level = level)
          r.Tail.quantiles
      with
      | Some q -> [ (name, Vjson.Num q.Tail.value) ]
      | None -> []
    in
    Vjson.Obj
      ([
         ("id", Vjson.Str scen.s_id);
         ("status", Vjson.Str "ok");
         ("tier", Vjson.Str (tier_name scen.s_tier));
         ("n", Vjson.Num (float_of_int scen.s_n));
         ("seed", Vjson.Num (float_of_int scen.s_seed));
         ("p", Vjson.Num ctx_e.e_p);
         ("width", Vjson.Num (Layout.width layout));
         ("height", Vjson.Num (Layout.height layout));
         ("replicas", Vjson.Num (float_of_int scen.s_replicas));
         ("budget_na", Vjson.Num budget_na);
         ("delta_nm", Vjson.Num r.Tail.delta);
         ("p_exceed", Vjson.Num r.Tail.p_exceed);
         ("se", Vjson.Num r.Tail.se);
         ("ess", Vjson.Num r.Tail.ess);
         ("hits", Vjson.Num (float_of_int r.Tail.hits));
       ]
      @ quantile "p99_na" 0.99
      @ quantile "p999_na" 0.999
      @ quantile "p9999_na" 0.9999
      @ [ ("method", Vjson.Str "importance-sampled tail") ])

type outcome = { o_id : string; o_json : Vjson.t; o_code : int }

type engine = state

let engine ?cache () =
  (* Touch the shared pool once so every scenario reuses warm domains. *)
  ignore (Parallel.default ());
  {
    cache;
    chars_tbl = Lru.create max_chars;
    ctx_tbl = Lru.create max_contexts;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

type engine_stats = {
  es_chars : int;
  es_contexts : int;
  es_hits : int;
  es_misses : int;
  es_evictions : int;
}

let engine_stats state =
  {
    es_chars = Lru.length state.chars_tbl;
    es_contexts = Lru.length state.ctx_tbl;
    es_hits = state.hits;
    es_misses = state.misses;
    es_evictions = state.evictions;
  }

let run_one state scen =
  (* Per-scenario latency distributions, overall and per tier —
     the service-level histograms `rgleak report` aggregates. *)
  let timed () =
    Obs.hist_time "batch.scenario_s" @@ fun () ->
    Obs.hist_time ("batch.tier." ^ tier_name scen.s_tier ^ "_s")
    @@ fun () -> run_scenario state scen
  in
  match Guard.protect timed with
  | Ok json -> { o_id = scen.s_id; o_json = json; o_code = 0 }
  | Error d ->
    {
      o_id = scen.s_id;
      o_json =
        Vjson.Obj
          [
            ("id", Vjson.Str scen.s_id);
            ("status", Vjson.Str "error");
            ("class", Vjson.Str (Guard.class_name d));
            ("error", Vjson.Str (Guard.to_string d));
          ];
      o_code = Guard.exit_code d;
    }

let run ?cache scenarios = List.map (run_one (engine ?cache ())) scenarios

let report outcomes =
  let header =
    Vjson.Obj
      [
        ("schema", Vjson.Str "rgleak-batch/1");
        ("scenarios", Vjson.Num (float_of_int (List.length outcomes)));
      ]
  in
  String.concat "\n"
    (Vjson.to_string header
    :: List.map (fun o -> Vjson.to_string o.o_json) outcomes)
  ^ "\n"

let exit_code outcomes =
  List.fold_left (fun acc o -> max acc o.o_code) 0 outcomes
