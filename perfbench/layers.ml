(* The traced run's spans: recorded here, in the benchmark's own code,
   around calls into the libraries' public functions.  [span] is a
   no-op wrapper while tracing is off, so the untraced replica pass runs
   the identical call sequence.  Counts come from the libraries' own
   Obs counters, enabled only for the traced pass. *)

module Obs = Rgleak_obs.Obs

let on = ref false
let samples : (string, float list) Hashtbl.t = Hashtbl.create 32

let add name x =
  Hashtbl.replace samples name
    (x :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let span name f =
  if not !on then f ()
  else begin
    let v, dt = Common.timed f in
    add name dt;
    v
  end

let get name = Option.value ~default:[] (Hashtbl.find_opt samples name)
let total name = Common.sum (get name)

(* Total time inside every recorded span: spans here never nest, so
   right after a replica pass this is the attributed part of its wall. *)
let attributed () = Hashtbl.fold (fun _ xs acc -> acc +. Common.sum xs) samples 0.0

(* Runs [f] five times: a warm-up (domain pool, code pages), then
   untraced and traced passes in turn, twice each, every timed pass from
   a compacted heap.  Returns the mean untraced and traced walls and the
   Obs snapshot of the last traced pass, whose spans stay recorded. *)
let passes f =
  on := false;
  f ();
  let timed_pass traced =
    Gc.compact ();
    Hashtbl.reset samples;
    if traced then begin
      Obs.reset ();
      Obs.set_enabled true;
      on := true
    end;
    let (), wall =
      Fun.protect
        ~finally:(fun () ->
          on := false;
          Obs.set_enabled false)
        (fun () -> Common.timed f)
    in
    wall
  in
  let off1 = timed_pass false in
  let on1 = timed_pass true in
  let off2 = timed_pass false in
  let on2 = timed_pass true in
  ((off1 +. off2) /. 2.0, (on1 +. on2) /. 2.0, Obs.snapshot ())

(* Start-to-exit time of the binary doing no work ([rgleak --version]),
   median of ten spawns: what every spawned command pays before and
   after the spans of its in-process replica. *)
let cli_exec () =
  let t = Common.median (List.init 10 (fun _ -> (Common.run [ "--version" ]).Common.wall)) in
  Metrics.set "cli.exec_s" t;
  t

let counter snap name =
  Option.value ~default:0 (List.assoc_opt name snap.Obs.counters)

let hist snap name = List.assoc_opt name snap.Obs.hists

(* Share of pool-worker capacity busy over a wall-clock interval. *)
let pool_busy_frac snap ~wall =
  let busy =
    List.fold_left
      (fun acc (k, v) ->
        if String.length k > 12 && String.sub k 0 12 = "pool.worker."
           && Filename.check_suffix k ".busy_s"
        then acc +. v
        else acc)
      0.0 snap.Obs.gauges
  in
  busy /. (wall *. float_of_int (Rgleak_num.Parallel.default_jobs ()))

(* Metrics every traced workload reports: the tracing overhead, and the
   untraced wall the user saw ([user_wall]) minus process start-up
   ([exec_total]) and the traced replica's spans ([attributed]), the
   latter scaled by the untraced/traced replica walls so the tracing
   overhead is not counted as attributed work. *)
let finish ~user_wall ~attributed ~exec_total ~off_wall ~on_wall snap =
  Metrics.set "trace.wall_s" user_wall;
  Metrics.set "trace.overhead_frac" ((on_wall /. off_wall) -. 1.0);
  Metrics.set "unattributed_s"
    (user_wall -. exec_total -. (attributed *. off_wall /. on_wall));
  Metrics.set "pool.busy_frac" (pool_busy_frac snap ~wall:on_wall);
  let tot name m = if get name <> [] then Metrics.set ~samples:(List.length (get name)) m (total name) in
  List.iter
    (fun n -> tot n n)
    [ "cells.characterize_s"; "cells.char_decode_s"; "memo.rgcorr_decode_s";
      "memo.linmemo_s"; "batch.parse_s"; "batch.report_s"; "rgcorr.build_s";
      "est.context_s"; "est.linear_s"; "est.int2d_s"; "est.polar_s";
      "exact.estimate_s"; "mc.prepare_s"; "mc.moments_s"; "tail.estimate_s";
      "delta.create_s"; "opt.run_s"; "circuit.place_s" ];
  (match get "batch.run_one_s" with
  | [] -> ()
  | xs -> Metrics.set_dist ~scale:1000.0 "batch.run_one_ms" (Common.median xs) xs);
  (match hist snap "cache.get_s" with
  | Some h when h.Obs.h_count > 0 -> Metrics.set ~samples:h.Obs.h_count "cache.get_s" h.Obs.h_sum
  | _ -> ());
  (match hist snap "cache.put_s" with
  | Some h when h.Obs.h_count > 0 -> Metrics.set ~samples:h.Obs.h_count "cache.put_s" h.Obs.h_sum
  | _ -> ());
  let hits = counter snap "cache.hits" and misses = counter snap "cache.misses" in
  if hits + misses > 0 then
    Metrics.set ~samples:(hits + misses) "cache.hit_ratio"
      (float_of_int hits /. float_of_int (hits + misses));
  let chars = List.length (get "cells.characterize_s") in
  let states = counter snap "characterize.states" in
  if chars > 0 && states > 0 then
    Metrics.set ~samples:chars "cells.states" (float_of_int (states / chars))
