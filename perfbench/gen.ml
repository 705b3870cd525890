(* Seeded input generators.  Every input the program sees — CLI
   arguments, manifests, arrival schedules — is a pure function of the
   workload seed, so one seed always replays the same inputs.  Only
   inputs the program accepts are emitted: e.g. the polar tier is never
   asked for exp/gauss correlation (invalid input), and the MC and tail
   tiers stay on small designs with finite-support or exponential
   correlation, where the sampler's Cholesky factor exists. *)

let state seed salt = Random.State.make [| seed; salt; 0x7e57 |]
let int_in st lo hi = lo + Random.State.int st (hi - lo + 1)
let float_in st lo hi = lo +. Random.State.float st (hi -. lo)
let chance st p = Random.State.float st 1.0 < p

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let cells =
  [| "INV_X1"; "INV_X2"; "NAND2_X1"; "NAND3_X1"; "NOR2_X1"; "NOR3_X1";
     "AND2_X1"; "OR2_X1"; "XOR2_X1"; "BUF_X1"; "AOI21_X1"; "OAI21_X1";
     "DFF_X1" |]

(* 3 to 6 distinct cells with integer weights; [fresh] adds a decimal
   weight no other generated mix can share (a never-seen mix). *)
let mix ?(fresh = false) st =
  let k = int_in st 3 6 in
  let chosen = Array.sub (shuffle st (Array.copy cells)) 0 k in
  Array.to_list chosen
  |> List.mapi (fun i c ->
         if fresh && i = 0 then Printf.sprintf "%s:%.3f" c (float_in st 1.0 20.0)
         else Printf.sprintf "%s:%d" c (int_in st 1 20))
  |> String.concat ","

(* Correlation specs.  [`Finite] families have a correlation distance
   (at most [max_d] µm), which the polar tier needs to lie inside the
   die. *)
let corr ?(max_d = 200) st = function
  | `Finite -> (
    let d () = int_in st 60 (min 200 max_d) in
    match Random.State.int st 3 with
    | 0 -> Printf.sprintf "spherical:%d" (d ())
    | 1 -> Printf.sprintf "linear:%d" (d ())
    | _ ->
      let range = int_in st 30 60 in
      Printf.sprintf "texp:%d:%d" range (int_in st 90 (max 90 (min 150 max_d))))
  | `Infinite ->
    if chance st 0.5 then Printf.sprintf "exp:%d" (int_in st 30 90)
    else Printf.sprintf "gauss:%d" (int_in st 40 100)

let any_corr st = corr st (if chance st 0.5 then `Finite else `Infinite)

(* ---------- cli-estimate ---------- *)

type estimate_cmd = {
  e_args : string list;
  e_n : int;
  e_mix : string;
  e_corr : string;
  e_p : float option;
  e_method : string;
  e_dims : (float * float) option;
  e_vt : bool;
  e_heavy : bool;  (** the n >= 100k stratum *)
}

(* One cycle of six strata; the timed loop walks cycles in order, so
   every run spends its time on the same mix of tiers and sizes. *)
let estimate_cycle st =
  let stratum i =
    let n, corr, method_, dims =
      match i with
      | 0 -> (int_in st 2000 20000, any_corr st, "linear", None)
      | 1 -> (int_in st 2000 50000, corr st `Finite, "auto", None)
      | 2 -> (int_in st 20000 200000, corr st `Infinite, "auto", None)
      | 3 ->
        let n = int_in st 100000 200000 in
        let aspect = float_in st 2.0 4.0 in
        let area = 16.0 *. float_of_int n in
        let w = Float.round (sqrt (area *. aspect)) in
        (n, any_corr st, "auto", Some (w, Float.round (area /. w)))
      | 4 -> (int_in st 100000 200000, corr st `Finite, "polar", None)
      | _ -> (int_in st 2000 200000, any_corr st, "int2d", None)
    in
    let mix = mix st in
    let p = if chance st 0.5 then None else Some (float_in st 0.2 0.8) in
    let p = Option.map (fun p -> Float.round (p *. 1000.0) /. 1000.0) p in
    let vt = chance st 0.3 in
    let args =
      [ "estimate"; "-n"; string_of_int n; "--mix"; mix; "--corr"; corr;
        "--method"; method_ ]
      @ (match p with Some p -> [ "-p"; Printf.sprintf "%g" p ] | None -> [])
      @ (match dims with
        | Some (w, h) ->
          [ "--width"; Printf.sprintf "%g" w; "--height"; Printf.sprintf "%g" h ]
        | None -> [])
      @ if vt then [ "--vt" ] else []
    in
    { e_args = args; e_n = n; e_mix = mix; e_corr = corr; e_p = p;
      e_method = method_; e_dims = dims; e_vt = vt; e_heavy = n >= 100000 }
  in
  List.init 6 stratum

let estimate_cmds ~seed ~cycles =
  let st = state seed 1 in
  List.concat (List.init cycles (fun _ -> estimate_cycle st))

(* ---------- manifests ---------- *)

let json_line fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
  ^ "}"

let str s = Printf.sprintf "%S" s
let num_i = string_of_int
let num_f x = Printf.sprintf "%g" x

type context = { c_mix : string; c_p : float option; c_temp : float option }

let context_fields c =
  [ ("mix", str c.c_mix) ]
  @ (match c.c_p with Some p -> [ ("p", num_f p) ] | None -> [])
  @ match c.c_temp with Some t -> [ ("temp", num_f t) ] | None -> []

(* [k] stratified uniforms in [0, 1), one per stratum, in seeded order:
   sizes drawn through them cover the range evenly in every run. *)
let strata st k =
  shuffle st (Array.init k (fun i -> (float_of_int i +. Random.State.float st 1.0) /. float_of_int k))

let in_range lo hi u = lo + int_of_float (float_of_int (hi - lo) *. u)

let light_tiers = [| "auto"; "linear"; "int2d"; "polar" |]

let light_scenario st ctx ~tier ~u =
  let n = if tier = "linear" then in_range 2000 20000 u else in_range 2000 200000 u in
  let aspect = if chance st 0.25 then Some (float_in st 0.5 2.0) else None in
  (* The batch engine's die: 16 µm² per gate at this aspect ratio. *)
  let a = Option.value aspect ~default:1.0 in
  let short_side = sqrt (16.0 *. float_of_int n *. Float.min a (1.0 /. a)) in
  let corr =
    if tier = "polar" then corr st `Finite ~max_d:(int_of_float (0.9 *. short_side))
    else any_corr st
  in
  json_line
    ([ ("n", num_i n) ] @ context_fields ctx
    @ [ ("corr", str corr); ("tier", str tier); ("seed", num_i (int_in st 0 999)) ]
    @ match aspect with Some a -> [ ("aspect", num_f a) ] | None -> [])

(* [per_tier] light scenarios of each tier, sizes stratified within the
   tier, contexts taken in turn. *)
let light_scenarios st ctxs ~per_tier =
  List.concat_map
    (fun tier ->
      let us = strata st per_tier in
      List.init per_tier (fun i ->
          light_scenario st ctxs.(i mod Array.length ctxs) ~tier ~u:us.(i)))
    (Array.to_list light_tiers)

let exact_scenario st ctx ~n =
  json_line
    ([ ("n", num_i n) ] @ context_fields ctx
    @ [ ("corr", str (any_corr st)); ("tier", str "exact");
        ("seed", num_i (int_in st 0 99999)) ])

let mc_corr st =
  if chance st 0.5 then Printf.sprintf "spherical:%d" (int_in st 80 200)
  else Printf.sprintf "exp:%d" (int_in st 30 90)

let mc_scenario st ctx =
  json_line
    ([ ("n", num_i (int_in st 100 250)) ] @ context_fields ctx
    @ [ ("corr", str (mc_corr st)); ("tier", str "mc");
        ("seed", num_i (int_in st 0 99999));
        ("replicas", num_i (int_in st 100 200)) ])

(* Tail budgets sit 10-25% above the design's mean leakage (the
   calibrated proposal shift then lands well inside its bracket). *)
let tail_scenario st =
  let n = int_in st 100 250 in
  let budget_ua = float_of_int n *. float_in st 2.9 3.2 /. 1000.0 in
  json_line
    [ ("n", num_i n); ("mix", str "INV_X1:1,NOR2_X1:1");
      ("corr", str (mc_corr st)); ("tier", str "tail");
      ("seed", num_i (int_in st 0 99999));
      ("replicas", num_i (int_in st 200 400));
      ("budget", Printf.sprintf "%.4f" budget_ua) ]

(* ---------- batch-sweep ---------- *)

let batch_contexts st =
  let hot = Some (float_of_int (int_in st 60 100)) in
  let p () = Some (Float.round (float_in st 0.3 0.7 *. 100.0) /. 100.0) in
  let m1 = mix st in
  let m2 = mix st in
  let m3 = mix st in
  [| { c_mix = m1; c_p = None; c_temp = None };
     { c_mix = m2; c_p = p (); c_temp = None };
     { c_mix = m3; c_p = None; c_temp = None };
     { c_mix = m1; c_p = p (); c_temp = None };
     { c_mix = m2; c_p = None; c_temp = hot } |]

(* 240 scenarios over 5 contexts: 212 light-tier (53 per tier), 20
   exact, 4 mc, 4 tail, sizes stratified, in seeded order. *)
let batch_manifest ~seed =
  let st = state seed 2 in
  let ctxs = batch_contexts st in
  let default_temp = Array.sub ctxs 0 4 in
  let light = light_scenarios st ctxs ~per_tier:53 in
  let us = strata st 20 in
  let exact =
    List.init 20 (fun i -> exact_scenario st ctxs.(i mod 5) ~n:(in_range 2000 10000 us.(i)))
  in
  let mc = List.init 4 (fun i -> mc_scenario st default_temp.(i)) in
  let tail = List.init 4 (fun _ -> tail_scenario st) in
  let lines = light @ exact @ mc @ tail in
  Array.to_list (shuffle st (Array.of_list lines))

(* One-scenario manifests spawned between sweeps: manifest lines (so
   the warm cache already holds everything they read and nothing grows)
   of middling size, as (light-tier line, exact line) pairs cycling
   through eight lines per light tier and six exact lines in seeded
   order.  Many distinct lines keep the latency percentiles from
   resting on the cost of one or two scenarios a seed happens to pick. *)
let has_tier t line =
  let needle = Printf.sprintf "\"tier\": \"%s\"" t in
  let n = String.length needle and l = String.length line in
  let rec at i = i + n <= l && (String.sub line i n = needle || at (i + 1)) in
  at 0

let n_of line = int_of_string (List.nth (String.split_on_char ' ' (List.hd (String.split_on_char ',' line))) 1)

(* The [k] lines of a tier whose sizes lie nearest the tier's median. *)
let near_median k lines =
  let sorted = List.sort (fun a b -> compare (n_of a) (n_of b)) lines in
  let len = List.length sorted in
  List.filteri (fun i _ -> i >= (len - k) / 2 && i < ((len - k) / 2) + k) sorted

let batch_singles ~seed ~manifest ~count =
  let st = state seed 3 in
  let of_tier k t = near_median k (List.filter (has_tier t) manifest) in
  let light =
    shuffle st (Array.of_list (List.concat_map (of_tier 8) (Array.to_list light_tiers)))
  in
  let exact = shuffle st (Array.of_list (of_tier 6 "exact")) in
  List.init count (fun i ->
      (light.(i mod Array.length light), exact.(i mod Array.length exact)))

(* ---------- serve-mixed ---------- *)

type arrival = { at : float; line : string; fresh : bool }

type serve_plan = {
  pool : string list;  (** the light scenarios the warm-up caches *)
  warm : string list;
      (** warm-up requests: one per pool scenario, then one mc and one
          tail scenario, so the traced run's replay reaches every tier *)
  light : arrival list;  (** scheduled in (0, light_s] *)
  heavy : string list;  (** exact n=20k requests, cycled back to back *)
  ping_every : float;
}

let serve_rate = 3.0
let fresh_share = 0.1

(* Every inter-arrival gap is at least this long: a light request takes
   about 0.1 s, so it seldom waits behind the one before.  Queueing
   behind bursts turned a slower host minute into p90 swings of 30% and
   more; the heavy phase is where waiting is measured. *)
let min_gap = 0.2

(* The light phase is an open loop at [serve_rate] with the arrival count
   fixed (rate x duration) and gaps of [min_gap] plus an exponential
   part, a shifted Poisson process, so every seed offers the same load.
   One arrival in ten carries a never-seen mix. *)
let serve_plan ~seed ~light_s =
  let st = state seed 4 in
  let ctxs =
    Array.init 4 (fun i ->
        { c_mix = mix st;
          c_p = (if i mod 2 = 0 then None else Some 0.5);
          c_temp = None })
  in
  (* Six scenarios per tier: enough that no single scenario's cost
     decides the light phase's p90. *)
  let pool = Array.of_list (light_scenarios st ctxs ~per_tier:6) in
  let count = max 1 (int_of_float (Float.round (serve_rate *. light_s))) in
  (* Exponential parts taken at stratified quantiles, in seeded order and
     scaled to fill the phase: every seed offers the same gap sizes. *)
  let gaps = Array.map (fun u -> -.log (1.0 -. u)) (strata st count) in
  let free = Float.max 0.0 (light_s -. (float_of_int count *. min_gap)) in
  let scale = free /. Array.fold_left ( +. ) 0.0 gaps in
  let times = Array.make count 0.0 in
  ignore
    (Array.fold_left
       (fun (i, t) g ->
         let t = t +. min_gap +. (g *. scale) in
         times.(i) <- t;
         (i + 1, t))
       (0, 0.0) gaps);
  let n_fresh = int_of_float (Float.round (fresh_share *. float_of_int count)) in
  let fresh_slots = Array.make count false in
  Array.iteri
    (fun k i -> if k < n_fresh then fresh_slots.(i) <- true)
    (shuffle st (Array.init count Fun.id));
  (* Pool scenarios are requested in turn, in a seeded order, so every
     run asks for each equally often. *)
  let order = shuffle st (Array.copy pool) in
  let light =
    List.init count (fun i ->
        if fresh_slots.(i) then
          let ctx = { c_mix = mix ~fresh:true st; c_p = None; c_temp = None } in
          let tier = light_tiers.(i mod Array.length light_tiers) in
          let line = light_scenario st ctx ~tier ~u:(Random.State.float st 1.0) in
          { at = times.(i); line; fresh = true }
        else { at = times.(i); line = order.(i mod Array.length order); fresh = false })
  in
  let heavy =
    List.init 4 (fun _ -> exact_scenario st ctxs.(0) ~n:20000)
  in
  let warm = Array.to_list pool @ [ mc_scenario st ctxs.(0); tail_scenario st ] in
  { pool = Array.to_list pool; warm; light; heavy; ping_every = 0.03 }

(* ---------- optimize-20k ---------- *)

(* Two seeded (placement seed, budget) configurations; the timed loop
   alternates them so each report can be compared byte for byte with
   the cold set-up run of the same configuration. *)
let optimize_configs ~seed =
  let st = state seed 5 in
  List.init 2 (fun _ -> (int_in st 1 1_000_000, int_in st 30 36))

let optimize_args ~cache_dir ~json (opt_seed, budget) =
  [ "optimize"; "-n"; "20000"; "--seed"; string_of_int opt_seed; "--budget";
    string_of_int budget; "--cache-dir"; cache_dir; "--json"; json ]
