module Guard = Rgleak_num.Guard
module Characterize = Rgleak_cells.Characterize
module Char_io = Rgleak_cells.Char_io
module Library = Rgleak_cells.Library
module Cell = Rgleak_cells.Cell
module Process_param = Rgleak_process.Process_param
module Mosfet = Rgleak_device.Mosfet
module Rg_correlation = Rgleak_core.Rg_correlation
module Estimator_linear = Rgleak_core.Estimator_linear

(* Kind versions: bump when the payload format or the semantics of the
   computation behind a kind change, so stale entries self-invalidate.
   chars 2: Char_io format 2, MC cross-check off. *)
let chars_version = 2
let rgcorr_version = 1
let linmemo_version = 1
let deltacov_version = 1

let library_fingerprint =
  let fp = lazy (
    let b = Buffer.create 1024 in
    Array.iter
      (fun (c : Cell.t) ->
        Buffer.add_string b
          (Printf.sprintf "%s/%d/%d;" c.Cell.name c.Cell.num_inputs
             (Cell.device_count c)))
      Library.cells;
    Digest.to_hex (Digest.string (Buffer.contents b)))
  in
  fun () -> Lazy.force fp

let param_part (p : Process_param.t) =
  Printf.sprintf "param=%s:%h:%h:%h" p.Process_param.name
    p.Process_param.nominal p.Process_param.sigma_d2d
    p.Process_param.sigma_wid

(* Canonical record of the settings `characterization` below actually
   uses (Characterize defaults + seed).  If those defaults ever change,
   this literal — or chars_version — must change with them. *)
let chars_settings = "l_points=97;span=6;mc=0;seed=1729;vdd=default"

let chars_key_parts ~temp_celsius =
  [
    "lib=" ^ library_fingerprint ();
    param_part Process_param.default_channel_length;
    chars_settings;
    (match temp_celsius with
    | None -> "temp=default"
    | Some t -> Printf.sprintf "temp=%h" t);
  ]

let compute_characterization ?jobs ~temp_celsius () =
  match temp_celsius with
  | None -> Characterize.default_library ()
  | Some t ->
    let env = Mosfet.env_at ~temp_k:(273.15 +. t) () in
    Characterize.characterize_library ?jobs ~env
      ~param:Process_param.default_channel_length ~seed:1729 ()

let characterization ?cache ?jobs ~temp_celsius () =
  match cache with
  | None -> compute_characterization ?jobs ~temp_celsius ()
  | Some c -> (
    let key = Cache.key (chars_key_parts ~temp_celsius) in
    let store chars =
      Cache.put c ~kind:"chars" ~version:chars_version ~key
        (Char_io.to_string chars);
      chars
    in
    match Cache.get c ~kind:"chars" ~version:chars_version ~key with
    | Some payload -> (
      match Char_io.of_string payload with
      | chars -> chars
      | exception Char_io.Format_error _ ->
        (* Integrity-valid but unparseable: written by an incompatible
           producer.  Recompute and overwrite. *)
        store (compute_characterization ?jobs ~temp_celsius ()))
    | None -> store (compute_characterization ?jobs ~temp_celsius ()))

(* Correlation tables: a line-oriented text payload with hex-float
   literals, so a reload replays the exact bits of the cold run.

     rgleak-rgcorr 1
     mapping exact|simplified
     points <p>
     sigma_bar <%h>
     support <k> <i0> ... <ik-1>
     f <%h>{p}
     pair <si> <sj> <%h>{p}     (k*k lines, row-major)
     end
*)

let render_floats b xs =
  Array.iter (fun x -> Printf.bprintf b " %h" x) xs

let render_tables (tb : Rg_correlation.tables) =
  let b = Buffer.create 8192 in
  Buffer.add_string b "rgleak-rgcorr 1\n";
  Printf.bprintf b "mapping %s\n"
    (match tb.Rg_correlation.t_mapping with
    | Rg_correlation.Exact -> "exact"
    | Rg_correlation.Simplified -> "simplified");
  Printf.bprintf b "points %d\n" tb.Rg_correlation.t_points;
  Printf.bprintf b "sigma_bar %h\n" tb.Rg_correlation.t_sigma_bar;
  Printf.bprintf b "support %d"
    (Array.length tb.Rg_correlation.t_support_cells);
  Array.iter (Printf.bprintf b " %d") tb.Rg_correlation.t_support_cells;
  Buffer.add_char b '\n';
  Buffer.add_string b "f";
  render_floats b tb.Rg_correlation.t_f_table;
  Buffer.add_char b '\n';
  let ns = Array.length tb.Rg_correlation.t_support_cells in
  for si = 0 to ns - 1 do
    for sj = 0 to ns - 1 do
      Printf.bprintf b "pair %d %d" si sj;
      render_floats b tb.Rg_correlation.t_pair_tables.((si * ns) + sj);
      Buffer.add_char b '\n'
    done
  done;
  Buffer.add_string b "end\n";
  Buffer.contents b

exception Parse of string

let parse_tables payload : Rg_correlation.tables =
  let fail fmt = Printf.ksprintf (fun s -> raise (Parse s)) fmt in
  let int_of s =
    match int_of_string_opt s with
    | Some i -> i
    | None -> fail "bad integer %S" s
  in
  let float_of s =
    match float_of_string_opt s with
    | Some x -> x
    | None -> fail "bad float %S" s
  in
  let lines =
    String.split_on_char '\n' payload |> List.filter (fun l -> l <> "")
  in
  let words l =
    String.split_on_char ' ' l |> List.filter (fun w -> w <> "")
  in
  match List.map words lines with
  | [ "rgleak-rgcorr"; "1" ]
    :: [ "mapping"; mp ]
    :: [ "points"; pts ]
    :: [ "sigma_bar"; sb ]
    :: ("support" :: nsup :: sup)
    :: ("f" :: fs)
    :: rest ->
    let mapping =
      match mp with
      | "exact" -> Rg_correlation.Exact
      | "simplified" -> Rg_correlation.Simplified
      | _ -> fail "bad mapping %S" mp
    in
    let points = int_of pts in
    let ns = int_of nsup in
    if List.length sup <> ns then fail "support count mismatch";
    let support = Array.of_list (List.map int_of sup) in
    let f_table = Array.of_list (List.map float_of fs) in
    if Array.length f_table <> points then fail "f table length mismatch";
    let pair_tables = Array.make (ns * ns) [||] in
    let rec consume rest idx =
      match rest with
      | [ "end" ] :: [] ->
        if idx <> ns * ns then fail "missing pair tables";
        ()
      | ("pair" :: si :: sj :: xs) :: tl ->
        let si = int_of si and sj = int_of sj in
        if si < 0 || si >= ns || sj < 0 || sj >= ns then
          fail "pair index out of range";
        let tbl = Array.of_list (List.map float_of xs) in
        if Array.length tbl <> points then fail "pair table length mismatch";
        pair_tables.((si * ns) + sj) <- tbl;
        consume tl (idx + 1)
      | _ -> fail "malformed pair section"
    in
    consume rest 0;
    {
      Rg_correlation.t_mapping = mapping;
      t_points = points;
      t_support_cells = support;
      t_f_table = f_table;
      t_pair_tables = pair_tables;
      t_sigma_bar = float_of sb;
    }
  | _ -> fail "malformed rgcorr payload"

let correlation ?cache ?mapping ~chars ~rg ~p ~key_parts () =
  let compute () = Rg_correlation.create ?mapping ~chars ~rg ~p () in
  match cache with
  | None -> compute ()
  | Some c -> (
    let key = Cache.key ("rgcorr" :: key_parts) in
    let store rgcorr =
      Cache.put c ~kind:"rgcorr" ~version:rgcorr_version ~key
        (render_tables (Rg_correlation.tables rgcorr));
      rgcorr
    in
    match Cache.get c ~kind:"rgcorr" ~version:rgcorr_version ~key with
    | Some payload -> (
      match Rg_correlation.of_tables ~rg (parse_tables payload) with
      | rgcorr -> rgcorr
      | exception (Parse _ | Invalid_argument _) -> store (compute ()))
    | None -> store (compute ()))

(* Linear F memo: sparse (offset index, value) pairs.

     rgleak-linmemo 1
     shape <rows> <cols>
     count <k>
     <idx> <%h>                  (k lines, increasing idx)
     end
*)

let render_memo memo =
  let rows, cols = Estimator_linear.memo_shape memo in
  let entries = Estimator_linear.memo_to_list memo in
  let b = Buffer.create 4096 in
  Buffer.add_string b "rgleak-linmemo 1\n";
  Printf.bprintf b "shape %d %d\n" rows cols;
  Printf.bprintf b "count %d\n" (List.length entries);
  List.iter (fun (idx, v) -> Printf.bprintf b "%d %h\n" idx v) entries;
  Buffer.add_string b "end\n";
  Buffer.contents b

let parse_memo payload ~rows ~cols =
  let fail fmt = Printf.ksprintf (fun s -> raise (Parse s)) fmt in
  let lines =
    String.split_on_char '\n' payload |> List.filter (fun l -> l <> "")
  in
  let words l =
    String.split_on_char ' ' l |> List.filter (fun w -> w <> "")
  in
  match List.map words lines with
  | [ "rgleak-linmemo"; "1" ]
    :: [ "shape"; r; c ]
    :: [ "count"; k ]
    :: rest ->
    if int_of_string_opt r <> Some rows || int_of_string_opt c <> Some cols
    then fail "shape mismatch";
    let k =
      match int_of_string_opt k with
      | Some k -> k
      | None -> fail "bad count"
    in
    let memo = Estimator_linear.memo_create ~rows ~cols in
    let rec consume rest n =
      match rest with
      | [ "end" ] :: [] -> if n <> k then fail "entry count mismatch"
      | [ idx; v ] :: tl ->
        let idx =
          match int_of_string_opt idx with
          | Some i when i >= 0 && i < rows * cols -> i
          | _ -> fail "bad entry index"
        in
        let v =
          match float_of_string_opt v with
          | Some v -> v
          | None -> fail "bad entry value"
        in
        Estimator_linear.memo_set memo ~idx ~value:v;
        consume tl (n + 1)
      | _ -> fail "malformed entry"
    in
    consume rest 0;
    memo
  | _ -> fail "malformed linmemo payload"

(* Delta covariance tables: the packed per-(type-pair, distance-bin)
   f_{m,n}(ρ) bigarray the delta estimator stages once per chip.  The
   payload is line-oriented hex floats, so a warm load replays the cold
   run's exact bits — which is what keeps the delta battery's bitwise
   guarantees intact across cache hits.

     rgleak-deltacov 1
     dim <len>
     <%h>                        (len lines, bin-major packed order)
     end

   The key combines the correlation structure's own table fingerprint
   (every float the tables derive from), the binning geometry, the used
   cell set, and caller key parts naming the spatial model — the full
   input closure of [binned_pair_tables]. *)

let render_deltacov cov =
  let len = Bigarray.Array1.dim cov in
  let b = Buffer.create (len * 16) in
  Buffer.add_string b "rgleak-deltacov 1\n";
  Printf.bprintf b "dim %d\n" len;
  for i = 0 to len - 1 do
    Printf.bprintf b "%h\n" (Bigarray.Array1.unsafe_get cov i)
  done;
  Buffer.add_string b "end\n";
  Buffer.contents b

let parse_deltacov payload ~len =
  let fail fmt = Printf.ksprintf (fun s -> raise (Parse s)) fmt in
  let lines =
    String.split_on_char '\n' payload |> List.filter (fun l -> l <> "")
  in
  match lines with
  | "rgleak-deltacov 1" :: dim :: rest ->
    (match String.split_on_char ' ' dim with
    | [ "dim"; d ] when int_of_string_opt d = Some len -> ()
    | _ -> fail "deltacov dim mismatch");
    let cov = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len in
    let rec consume rest i =
      match rest with
      | [ "end" ] -> if i <> len then fail "deltacov value count mismatch"
      | v :: tl ->
        if i >= len then fail "deltacov value count mismatch";
        (match float_of_string_opt v with
        | Some x -> Bigarray.Array1.unsafe_set cov i x
        | None -> fail "bad deltacov value %S" v);
        consume tl (i + 1)
      | [] -> fail "deltacov missing end"
    in
    consume rest 0;
    cov
  | _ -> fail "malformed deltacov payload"

let delta_tables ?cache ~corr ~rgcorr ~used ~distance_points ~dstep ~key_parts
    () =
  let compute () =
    Rg_correlation.binned_pair_tables rgcorr ~used ~distance_points ~dstep
      ~rho_of_d:(fun d -> Rgleak_process.Corr_model.total corr d)
  in
  match cache with
  | None -> compute ()
  | Some c -> (
    let nu = Array.length used in
    let len = Rgleak_num.Parallel.tri_size nu * distance_points in
    let key =
      Cache.key
        ("deltacov"
        :: ("tables=" ^ Rg_correlation.table_fingerprint rgcorr)
        :: Printf.sprintf "points=%d" distance_points
        :: Printf.sprintf "dstep=%h" dstep
        :: ("used="
           ^ String.concat ","
               (Array.to_list (Array.map string_of_int used)))
        :: key_parts)
    in
    let store cov =
      Cache.put c ~kind:"deltacov" ~version:deltacov_version ~key
        (render_deltacov cov);
      cov
    in
    match Cache.get c ~kind:"deltacov" ~version:deltacov_version ~key with
    | Some payload -> (
      match parse_deltacov payload ~len with
      | cov -> cov
      | exception Parse _ -> store (compute ()))
    | None -> store (compute ()))

let with_linear_memo ?cache ~key_parts ~rows ~cols f =
  match cache with
  | None -> f (Estimator_linear.memo_create ~rows ~cols)
  | Some c -> (
    let key =
      Cache.key
        ("linmemo" :: Printf.sprintf "shape=%dx%d" rows cols :: key_parts)
    in
    let cold () =
      let memo = Estimator_linear.memo_create ~rows ~cols in
      let r = f memo in
      Cache.put c ~kind:"linmemo" ~version:linmemo_version ~key
        (render_memo memo);
      r
    in
    match Cache.get c ~kind:"linmemo" ~version:linmemo_version ~key with
    | Some payload -> (
      match parse_memo payload ~rows ~cols with
      | memo -> f memo
      | exception Parse _ -> cold ())
    | None -> cold ())
