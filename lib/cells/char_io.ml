open Rgleak_num
open Rgleak_process

exception Format_error of string

let magic = "rgleak-characterization"
let version = 2

(* Version 1 always carried the MC moments; version 2 writes "- -" in
   their place when the cross-check did not run. *)
let mc_fields = function
  | None -> "- -"
  | Some m ->
    Printf.sprintf "%.17g %.17g" m.Characterize.mu_mc m.Characterize.sigma_mc

let to_string (chars : Characterize.cell_char array) =
  let buf = Buffer.create (1 lsl 20) in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "%s %d\n" magic version;
  (if Array.length chars > 0 then begin
     let p = chars.(0).Characterize.param in
     pf "param %s %.17g %.17g %.17g\n" p.Process_param.name
       p.Process_param.nominal p.Process_param.sigma_d2d
       p.Process_param.sigma_wid
   end);
  Array.iter
    (fun (ch : Characterize.cell_char) ->
      pf "cell %s %d\n" ch.Characterize.cell.Cell.name
        (Array.length ch.Characterize.states);
      Array.iter
        (fun (sc : Characterize.state_char) ->
          let points = Interp.to_points sc.Characterize.table in
          pf "state %d %.17g %.17g %.17g %.17g %s %.17g %.17g %.17g %.17g %d\n"
            sc.Characterize.state_index sc.Characterize.mu_analytic
            sc.Characterize.sigma_analytic sc.Characterize.mu_ref
            sc.Characterize.sigma_ref (mc_fields sc.Characterize.mc)
            sc.Characterize.fit.Mgf.a
            sc.Characterize.fit.Mgf.b sc.Characterize.fit.Mgf.c
            sc.Characterize.fit_rms_log (Array.length points);
          Array.iter (fun (l, x) -> pf "%.17g %.17g\n" l x) points)
        ch.Characterize.states)
    chars;
  pf "end\n";
  Buffer.contents buf

type cursor = { lines : string array; mutable pos : int }

let next cur =
  if cur.pos >= Array.length cur.lines then
    raise (Format_error "unexpected end of input");
  let line = cur.lines.(cur.pos) in
  cur.pos <- cur.pos + 1;
  line

let words line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let float_of ~what s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> raise (Format_error (Printf.sprintf "bad float for %s: %S" what s))

let int_of ~what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> raise (Format_error (Printf.sprintf "bad integer for %s: %S" what s))

let of_string text =
  let cur =
    {
      lines =
        String.split_on_char '\n' text
        |> List.filter (fun s -> String.trim s <> "")
        |> Array.of_list;
      pos = 0;
    }
  in
  let file_version =
    match words (next cur) with
    | [ m; v ] when m = magic ->
      let v = int_of ~what:"version" v in
      if v < 1 || v > version then
        raise (Format_error "unsupported format version");
      v
    | _ -> raise (Format_error "missing magic header")
  in
  let mc_of mu_mc s_mc =
    match (mu_mc, s_mc) with
    | "-", "-" when file_version >= 2 -> None
    | _ ->
      Some
        {
          Characterize.mu_mc = float_of ~what:"mu_mc" mu_mc;
          sigma_mc = float_of ~what:"sigma_mc" s_mc;
        }
  in
  let param =
    match words (next cur) with
    | [ "param"; name; nominal; d2d; wid ] ->
      Process_param.make ~name ~nominal:(float_of ~what:"nominal" nominal)
        ~sigma_d2d:(float_of ~what:"sigma_d2d" d2d)
        ~sigma_wid:(float_of ~what:"sigma_wid" wid)
    | _ -> raise (Format_error "expected param line")
  in
  let chars = ref [] in
  let rec read_cells () =
    match words (next cur) with
    | [ "end" ] -> ()
    | [ "cell"; name; nstates ] ->
      let cell =
        try Library.find name
        with Not_found ->
          raise (Format_error (Printf.sprintf "unknown cell %S" name))
      in
      let nstates = int_of ~what:"state count" nstates in
      if nstates <> Cell.num_states cell then
        raise
          (Format_error
             (Printf.sprintf "cell %s: expected %d states, file has %d" name
                (Cell.num_states cell) nstates));
      let states =
        Array.init nstates (fun expect_idx ->
            match words (next cur) with
            | "state" :: idx :: mu_an :: s_an :: mu_ref :: s_ref :: mu_mc
              :: s_mc :: a :: b :: c :: rms :: [ npoints ] ->
              let idx = int_of ~what:"state index" idx in
              if idx <> expect_idx then
                raise (Format_error "states out of order");
              let npoints = int_of ~what:"point count" npoints in
              let points =
                Array.init npoints (fun _ ->
                    match words (next cur) with
                    | [ l; x ] ->
                      (float_of ~what:"L" l, float_of ~what:"leakage" x)
                    | _ -> raise (Format_error "expected table point"))
              in
              {
                Characterize.state_index = idx;
                table = Interp.of_points points;
                fit =
                  Mgf.triplet ~a:(float_of ~what:"a" a)
                    ~b:(float_of ~what:"b" b) ~c:(float_of ~what:"c" c);
                fit_rms_log = float_of ~what:"rms" rms;
                mu_analytic = float_of ~what:"mu_analytic" mu_an;
                sigma_analytic = float_of ~what:"sigma_analytic" s_an;
                mu_ref = float_of ~what:"mu_ref" mu_ref;
                sigma_ref = float_of ~what:"sigma_ref" s_ref;
                mc = mc_of mu_mc s_mc;
              }
            | _ -> raise (Format_error "expected state line"))
      in
      chars := { Characterize.cell; param; states } :: !chars;
      read_cells ()
    | _ -> raise (Format_error "expected cell or end line")
  in
  read_cells ();
  Array.of_list (List.rev !chars)

let save ~path chars =
  let oc = open_out path in
  (try output_string oc (to_string chars)
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

let load ~path =
  let ic = open_in path in
  let text =
    try really_input_string ic (in_channel_length ic)
    with e ->
      close_in_noerr ic;
      raise e
  in
  close_in ic;
  of_string text
