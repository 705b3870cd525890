type wid_family =
  | Exponential of { range : float }
  | Gaussian of { range : float }
  | Linear of { dmax : float }
  | Spherical of { dmax : float }
  | Truncated_exponential of { range : float; dmax : float }

type t = { fam : wid_family; p : Process_param.t }

let validate = function
  | Exponential { range } | Gaussian { range } ->
    if range <= 0.0 then invalid_arg "Corr_model: range must be positive"
  | Linear { dmax } | Spherical { dmax } ->
    if dmax <= 0.0 then invalid_arg "Corr_model: dmax must be positive"
  | Truncated_exponential { range; dmax } ->
    if range <= 0.0 || dmax <= 0.0 then
      invalid_arg "Corr_model: range and dmax must be positive"

let create fam p =
  validate fam;
  { fam; p }

let of_spec s =
  let num what v =
    match float_of_string_opt v with
    | Some f when Float.is_finite f && f > 0.0 -> f
    | _ ->
      Rgleak_num.Guard.invalid
        (Printf.sprintf "bad %s %S in correlation spec %S" what v s)
  in
  match String.split_on_char ':' s with
  | [ "linear"; d ] -> Linear { dmax = num "distance" d }
  | [ "spherical"; d ] -> Spherical { dmax = num "distance" d }
  | [ "exp"; r ] -> Exponential { range = num "range" r }
  | [ "gauss"; r ] -> Gaussian { range = num "range" r }
  | [ "texp"; r; d ] ->
    Truncated_exponential { range = num "range" r; dmax = num "distance" d }
  | _ ->
    Rgleak_num.Guard.invalid
      (Printf.sprintf
         "cannot parse correlation %S (expected e.g. linear:120, exp:60, \
          gauss:80, spherical:120, texp:60:120)"
         s)

let to_spec ~num = function
  | Linear { dmax } -> "linear:" ^ num dmax
  | Spherical { dmax } -> "spherical:" ^ num dmax
  | Exponential { range } -> "exp:" ^ num range
  | Gaussian { range } -> "gauss:" ^ num range
  | Truncated_exponential { range; dmax } ->
    Printf.sprintf "texp:%s:%s" (num range) (num dmax)

let wid t d =
  let d = Float.abs d in
  match t.fam with
  | Exponential { range } -> exp (-.d /. range)
  | Gaussian { range } -> exp (-.(d /. range) *. (d /. range))
  | Linear { dmax } -> Float.max 0.0 (1.0 -. (d /. dmax))
  | Spherical { dmax } ->
    if d >= dmax then 0.0
    else begin
      let r = d /. dmax in
      1.0 -. (1.5 *. r) +. (0.5 *. r *. r *. r)
    end
  | Truncated_exponential { range; dmax } ->
    if d >= dmax then 0.0
    else begin
      (* exp(-d/range) shifted by its value at dmax and renormalized so
         that rho(0) = 1 and rho(dmax) = 0. *)
      let tail = exp (-.dmax /. range) in
      (exp (-.d /. range) -. tail) /. (1.0 -. tail)
    end

let floor t = Process_param.d2d_fraction t.p

let total t d =
  let rc = floor t in
  rc +. ((1.0 -. rc) *. wid t d)

let wid_dmax t =
  match t.fam with
  | Exponential _ | Gaussian _ -> None
  | Linear { dmax } | Spherical { dmax } | Truncated_exponential { dmax; _ } ->
    Some dmax

let psd_in_2d t =
  match t.fam with
  | Exponential _ | Gaussian _ | Spherical _ -> true
  | Linear _ | Truncated_exponential _ -> false

let family t = t.fam
let param t = t.p

let is_valid_correlation t ~samples ~upto =
  let eps = 1e-12 in
  let ok = ref (Float.abs (total t 0.0 -. 1.0) < 1e-9) in
  let prev = ref (total t 0.0) in
  for i = 1 to samples do
    let d = float_of_int i /. float_of_int samples *. upto in
    let r = total t d in
    if r > !prev +. 1e-9 then ok := false;
    if r < floor t -. eps || r > 1.0 +. eps then ok := false;
    prev := r
  done;
  !ok

let pp fmt t =
  let fam_str =
    match t.fam with
    | Exponential { range } -> Printf.sprintf "exponential(range=%g)" range
    | Gaussian { range } -> Printf.sprintf "gaussian(range=%g)" range
    | Linear { dmax } -> Printf.sprintf "linear(dmax=%g)" dmax
    | Spherical { dmax } -> Printf.sprintf "spherical(dmax=%g)" dmax
    | Truncated_exponential { range; dmax } ->
      Printf.sprintf "truncated-exponential(range=%g,dmax=%g)" range dmax
  in
  Format.fprintf fmt "%s with floor %.4f" fam_str (floor t)
