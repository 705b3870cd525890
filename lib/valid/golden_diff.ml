(* Golden-artifact regression for validation reports.

   A committed baseline pins the numbers a known-good build produced;
   a fresh run is diffed against it structurally and numerically.
   Structural mismatches (schema, sweep, point set, tier set, statuses,
   pass flags) can only mean an intentional harness change or a broken
   estimator, so they always classify as Breaking.  Numeric drift is
   judged against the *baseline's own MC confidence interval*: movement
   within the interval is indistinguishable from sampling noise of the
   pinned run and classifies as Benign, movement beyond it means the
   code now computes something statistically different — Breaking.

   Since every quantity in a report is a pure function of (sweep,
   seed), the expected steady state is Identical, bit for bit; Benign
   drift appears only when numerics are intentionally reordered
   (e.g. a quadrature or reduction change) and tells the reviewer the
   change is within noise. *)

module Vjson = Rgleak_obs.Vjson

type severity = Identical | Benign | Breaking

type finding = {
  path : string;  (** JSON-pointer-ish location, e.g. ["points/3/tiers/1/std"] *)
  kind : severity;
  detail : string;
}

type diff = { severity : severity; findings : finding list }

let severity_name = function
  | Identical -> "identical"
  | Benign -> "benign"
  | Breaking -> "breaking"

let worst a b =
  match (a, b) with
  | Breaking, _ | _, Breaking -> Breaking
  | Benign, _ | _, Benign -> Benign
  | Identical, Identical -> Identical

(* ---------- helpers over Vjson documents ---------- *)

let jstr j key = Vjson.str (Vjson.get key j)
let jnum j key = Vjson.num (Vjson.get key j)
let jbool j key = Vjson.bool (Vjson.get key j)
let jarr j key = Vjson.arr (Vjson.get key j)

let opt_num j key =
  match Vjson.mem key j with
  | Some (Vjson.Num f) -> Some f
  | _ -> None

let breaking path detail = { path; kind = Breaking; detail }

(* The sampling-noise tolerance for a numeric field of a tier or MC
   block: the baseline MC half-width for that moment, falling back to a
   small relative epsilon for fields without a CI (rel errors, z). *)
let fallback_rel = 1e-9

let within_fallback a b =
  let scale = Float.max (Float.abs a) (Float.abs b) in
  Float.abs (a -. b) <= fallback_rel *. Float.max scale 1.0

(* ---------- field comparison ---------- *)

let diff_number ~path ~tol name base cur acc =
  match (base, cur) with
  | None, None -> acc
  | Some _, None | None, Some _ ->
    breaking (path ^ "/" ^ name) "field presence changed" :: acc
  | Some b, Some c ->
    if b = c then acc
    else
      let d = Float.abs (c -. b) in
      let kind =
        match tol with
        | Some t when d <= t -> Benign
        | Some _ -> Breaking
        | None -> if within_fallback b c then Benign else Breaking
      in
      let detail =
        Printf.sprintf "%.17g -> %.17g (|d| = %.3g%s)" b c d
          (match tol with
          | Some t -> Printf.sprintf ", tolerance %.3g" t
          | None -> "")
      in
      { path = path ^ "/" ^ name; kind; detail } :: acc

let diff_flag ~path name base cur acc =
  if base = cur then acc
  else
    breaking (path ^ "/" ^ name)
      (Printf.sprintf "%b -> %b" base cur)
    :: acc

let diff_string ~path name base cur acc =
  if String.equal base cur then acc
  else
    breaking (path ^ "/" ^ name) (Printf.sprintf "%S -> %S" base cur) :: acc

(* ---------- tier / point / report comparison ---------- *)

(* CI half-widths from the *baseline* MC block: z_crit recovered from
   the report's confidence level. *)
let mc_half_widths ~confidence base_mc =
  let z =
    Rgleak_num.Special.normal_quantile (0.5 +. (confidence /. 2.0))
  in
  let hw key = Option.map (fun se -> z *. se) (opt_num base_mc key) in
  (hw "mean_se", hw "std_se")

let diff_verdict ~path base cur acc =
  (* Verdict sub-objects: the pass flag is structural; the numeric
     members follow the enclosing tolerances only through the values
     they derive from, so compare them with the fallback epsilon. *)
  match (base, cur) with
  | Vjson.Null, Vjson.Null -> acc
  | Vjson.Null, _ | _, Vjson.Null ->
    breaking path "verdict presence changed" :: acc
  | b, c ->
    let acc = diff_flag ~path "pass" (jbool b "pass") (jbool c "pass") acc in
    List.fold_left
      (fun acc key ->
        diff_number ~path ~tol:None key (opt_num b key) (opt_num c key) acc)
      acc
      [ "value"; "center"; "z"; "ci_half_width"; "budget" ]

let diff_tier ~path ~mean_hw ~std_hw base cur acc =
  let acc = diff_string ~path "tier" (jstr base "tier") (jstr cur "tier") acc in
  let acc =
    diff_string ~path "status" (jstr base "status") (jstr cur "status") acc
  in
  let acc = diff_flag ~path "pass" (jbool base "pass") (jbool cur "pass") acc in
  let acc =
    diff_number ~path ~tol:mean_hw "mean" (opt_num base "mean")
      (opt_num cur "mean") acc
  in
  let acc =
    diff_number ~path ~tol:std_hw "std" (opt_num base "std")
      (opt_num cur "std") acc
  in
  let acc =
    List.fold_left
      (fun acc key ->
        diff_number ~path ~tol:None key (opt_num base key) (opt_num cur key)
          acc)
      acc
      [ "mean_rel_err"; "std_rel_err" ]
  in
  let acc =
    diff_verdict ~path:(path ^ "/mean_equiv") (Vjson.get "mean_equiv" base)
      (Vjson.get "mean_equiv" cur) acc
  in
  diff_verdict ~path:(path ^ "/std_equiv") (Vjson.get "std_equiv" base)
    (Vjson.get "std_equiv" cur) acc

let diff_point ~confidence ~index base cur acc =
  let path = Printf.sprintf "points/%d" index in
  let acc = diff_string ~path "label" (jstr base "label") (jstr cur "label") acc in
  if acc <> [] && (List.hd acc).path = path ^ "/label" then
    (* Point identity changed: comparing the rest field-by-field would
       only cascade noise. *)
    acc
  else begin
    let acc =
      List.fold_left
        (fun acc key ->
          diff_number ~path ~tol:None key (opt_num base key) (opt_num cur key)
            acc)
        acc
        [ "n"; "aspect"; "p"; "replicas"; "width"; "height" ]
    in
    let acc =
      diff_string ~path "corr" (jstr base "corr") (jstr cur "corr") acc
    in
    let acc = diff_string ~path "mix" (jstr base "mix") (jstr cur "mix") acc in
    let acc = diff_flag ~path "pass" (jbool base "pass") (jbool cur "pass") acc in
    let base_mc = Vjson.get "mc" base and cur_mc = Vjson.get "mc" cur in
    let mc_path = path ^ "/mc" in
    let acc =
      diff_string ~path:mc_path "status" (jstr base_mc "status")
        (jstr cur_mc "status") acc
    in
    let mean_hw, std_hw = mc_half_widths ~confidence base_mc in
    let acc =
      diff_number ~path:mc_path ~tol:mean_hw "mean" (opt_num base_mc "mean")
        (opt_num cur_mc "mean") acc
    in
    let acc =
      diff_number ~path:mc_path ~tol:std_hw "std" (opt_num base_mc "std")
        (opt_num cur_mc "std") acc
    in
    let acc =
      List.fold_left
        (fun acc key ->
          diff_number ~path:mc_path ~tol:None key (opt_num base_mc key)
            (opt_num cur_mc key) acc)
        acc
        [ "mean_se"; "std_se" ]
    in
    let base_tiers = jarr base "tiers" and cur_tiers = jarr cur "tiers" in
    if List.length base_tiers <> List.length cur_tiers then
      breaking (path ^ "/tiers")
        (Printf.sprintf "tier count %d -> %d" (List.length base_tiers)
           (List.length cur_tiers))
      :: acc
    else
      List.fold_left2
        (fun (acc, i) b c ->
          ( diff_tier
              ~path:(Printf.sprintf "%s/tiers/%d" path i)
              ~mean_hw ~std_hw b c acc,
            i + 1 ))
        (acc, 0) base_tiers cur_tiers
      |> fst
  end

let compare ~baseline ~current =
  let findings =
    let acc = [] in
    let acc =
      diff_string ~path:"" "schema" (jstr baseline "schema")
        (jstr current "schema") acc
    in
    if acc <> [] then acc
    else begin
      let acc =
        diff_string ~path:"" "sweep" (jstr baseline "sweep")
          (jstr current "sweep") acc
      in
      let acc =
        diff_number ~path:"" ~tol:None "seed"
          (opt_num baseline "seed") (opt_num current "seed") acc
      in
      let acc =
        diff_number ~path:"" ~tol:None "confidence"
          (opt_num baseline "confidence") (opt_num current "confidence") acc
      in
      let acc =
        diff_flag ~path:"" "pass" (jbool baseline "pass")
          (jbool current "pass") acc
      in
      let confidence = jnum baseline "confidence" in
      let base_points = jarr baseline "points"
      and cur_points = jarr current "points" in
      if List.length base_points <> List.length cur_points then
        breaking "points"
          (Printf.sprintf "point count %d -> %d" (List.length base_points)
             (List.length cur_points))
        :: acc
      else
        List.fold_left2
          (fun (acc, i) b c ->
            (diff_point ~confidence ~index:i b c acc, i + 1))
          (acc, 0) base_points cur_points
        |> fst
    end
  in
  let findings = List.rev findings in
  let severity =
    List.fold_left (fun s f -> worst s f.kind) Identical findings
  in
  { severity; findings }

(* ---------- tail documents (rgleak-tail/1) ---------- *)

(* Same classification philosophy as the validation reports: scenario
   identity and integer counts are structural (Breaking on any change);
   the probability estimate is judged against the *baseline's own*
   delta-method CI (drift within it is sampling-noise-equivalent, so
   Benign); every other numeric field gets the bit-stability fallback,
   since in steady state the document is a pure function of its
   arguments. *)

let tail_schema = "rgleak-tail/1"

let compare_tail ~baseline ~current =
  let findings =
    let acc = [] in
    let acc =
      diff_string ~path:"" "schema" (jstr baseline "schema")
        (jstr current "schema") acc
    in
    if acc <> [] then acc
    else begin
      let acc =
        List.fold_left
          (fun acc key ->
            diff_string ~path:"" key (jstr baseline key) (jstr current key)
              acc)
          acc [ "corr"; "mix" ]
      in
      let acc =
        List.fold_left
          (fun acc key ->
            diff_number ~path:"" ~tol:None key (opt_num baseline key)
              (opt_num current key) acc)
          acc
          [ "n"; "p"; "seed"; "replicas"; "confidence"; "budget_na"; "hits" ]
      in
      let p_tol =
        match (opt_num baseline "se", opt_num baseline "confidence") with
        | Some se, Some conf when se > 0.0 ->
          let z =
            Rgleak_num.Special.normal_quantile (0.5 +. (conf /. 2.0))
          in
          Some (z *. se)
        | _ -> None
      in
      let acc =
        diff_number ~path:"" ~tol:p_tol "p_exceed"
          (opt_num baseline "p_exceed") (opt_num current "p_exceed") acc
      in
      let acc =
        List.fold_left
          (fun acc key ->
            diff_number ~path:"" ~tol:None key (opt_num baseline key)
              (opt_num current key) acc)
          acc
          [
            "se"; "ci_lo"; "ci_hi"; "wilson_lo"; "wilson_hi"; "hit_rate";
            "ess"; "mean_weight"; "max_weight"; "delta_nm"; "shift_norm2";
            "analytic_p";
          ]
      in
      let base_qs = jarr baseline "quantiles"
      and cur_qs = jarr current "quantiles" in
      if List.length base_qs <> List.length cur_qs then
        breaking "quantiles"
          (Printf.sprintf "quantile count %d -> %d" (List.length base_qs)
             (List.length cur_qs))
        :: acc
      else
        List.fold_left2
          (fun (acc, i) b c ->
            let path = Printf.sprintf "quantiles/%d" i in
            let acc =
              diff_number ~path ~tol:None "level" (opt_num b "level")
                (opt_num c "level") acc
            in
            let acc =
              diff_number ~path ~tol:None "leakage_na"
                (opt_num b "leakage_na") (opt_num c "leakage_na") acc
            in
            (acc, i + 1))
          (acc, 0) base_qs cur_qs
        |> fst
    end
  in
  let findings = List.rev findings in
  let severity =
    List.fold_left (fun s f -> worst s f.kind) Identical findings
  in
  { severity; findings }

(* ---------- optimize documents (rgleak-optimize/1) ---------- *)

(* The optimizer report is fully deterministic — a pure function of
   (scenario, seed, budget) with no Monte Carlo noise anywhere — so
   there is no CI to judge drift against: strings and field presence
   are structural (Breaking), every numeric field gets the
   bit-stability fallback epsilon.  The comparison walks the union of
   top-level keys, so adding or dropping a field is loud. *)

let optimize_schema = "rgleak-optimize/1"

let compare_optimize ~baseline ~current =
  let keys_of = function
    | Vjson.Obj kvs -> List.map fst kvs
    | _ -> []
  in
  let keys =
    List.sort_uniq String.compare (keys_of baseline @ keys_of current)
  in
  let findings =
    let acc = [] in
    let acc =
      diff_string ~path:"" "schema" (jstr baseline "schema")
        (jstr current "schema") acc
    in
    if acc <> [] then acc
    else
      List.fold_left
        (fun acc key ->
          match (Vjson.mem key baseline, Vjson.mem key current) with
          | None, None -> acc
          | Some _, None | None, Some _ ->
            breaking ("/" ^ key) "field presence changed" :: acc
          | Some (Vjson.Str b), Some (Vjson.Str c) ->
            diff_string ~path:"" key b c acc
          | Some (Vjson.Num b), Some (Vjson.Num c) ->
            diff_number ~path:"" ~tol:None key (Some b) (Some c) acc
          | Some (Vjson.Bool b), Some (Vjson.Bool c) ->
            diff_flag ~path:"" key b c acc
          | Some b, Some c ->
            if b = c then acc
            else breaking ("/" ^ key) "structured field changed" :: acc)
        acc keys
  in
  let findings = List.rev findings in
  let severity =
    List.fold_left (fun s f -> worst s f.kind) Identical findings
  in
  { severity; findings }

(* Schema-dispatching entry point: tail and optimize documents route
   to their comparators, everything else to the validation-report
   comparator. *)
let compare_document ~baseline ~current =
  match Vjson.mem "schema" baseline with
  | Some (Vjson.Str s) when String.equal s tail_schema ->
    compare_tail ~baseline ~current
  | Some (Vjson.Str s) when String.equal s optimize_schema ->
    compare_optimize ~baseline ~current
  | _ -> compare ~baseline ~current

let pp fmt d =
  (match d.severity with
  | Identical -> Format.fprintf fmt "golden: identical@."
  | Benign ->
    Format.fprintf fmt
      "golden: benign drift (%d finding(s), all within MC sampling noise)@."
      (List.length d.findings)
  | Breaking ->
    Format.fprintf fmt "golden: BREAKING drift (%d finding(s))@."
      (List.length d.findings));
  List.iter
    (fun f ->
      Format.fprintf fmt "  [%s] %s: %s@." (severity_name f.kind) f.path
        f.detail)
    d.findings
