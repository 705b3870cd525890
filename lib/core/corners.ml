open Rgleak_process
open Rgleak_cells

type corner = { name : string; l_shift_sigmas : float; temp_c : float }

let typical = { name = "TT/25C"; l_shift_sigmas = 0.0; temp_c = 25.0 }

let standard_corners =
  [
    { name = "FF/125C"; l_shift_sigmas = -3.0; temp_c = 125.0 };
    { name = "TT/125C"; l_shift_sigmas = 0.0; temp_c = 125.0 };
    typical;
    { name = "SS/-40C"; l_shift_sigmas = 3.0; temp_c = -40.0 };
  ]

type corner_result = {
  corner : corner;
  mean : float;
  std : float;
  p3sigma : float;
}

let analyze ?(corners = standard_corners) ?(l_points = 49) ?p ~param ~corr
    ~spec () =
  List.map
    (fun corner ->
      let nominal =
        param.Process_param.nominal
        +. (corner.l_shift_sigmas *. param.Process_param.sigma_d2d)
      in
      let corner_param =
        Process_param.make
          ~name:(param.Process_param.name ^ "@" ^ corner.name)
          ~nominal ~sigma_d2d:param.Process_param.sigma_d2d
          ~sigma_wid:param.Process_param.sigma_wid
      in
      let env =
        Rgleak_device.Mosfet.env_at ~temp_k:(273.15 +. corner.temp_c) ()
      in
      let chars =
        Characterize.characterize_library ~l_points ~env ~param:corner_param
          ~seed:1729 ()
      in
      let r = Estimate.early ?p ~with_vt:true ~chars ~corr spec in
      {
        corner;
        mean = r.Estimate.mean;
        std = r.Estimate.std;
        p3sigma = r.Estimate.mean +. (3.0 *. r.Estimate.std);
      })
    corners

let worst = function
  | [] -> invalid_arg "Corners.worst: empty result list"
  | first :: rest ->
    List.fold_left
      (fun best r -> if r.p3sigma > best.p3sigma then r else best)
      first rest

let pp fmt results =
  Format.fprintf fmt "%-10s %12s %12s %12s@." "corner" "mean (uA)" "std (uA)"
    "mean+3s (uA)";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-10s %12.2f %12.2f %12.2f@." r.corner.name
        (r.mean /. 1000.0) (r.std /. 1000.0) (r.p3sigma /. 1000.0))
    results
