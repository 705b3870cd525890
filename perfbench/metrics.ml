(* Metric registry of one run and the result printer.

   End-to-end metrics come from untraced runs ([--trace 0]); per-layer
   metrics from the traced run ([--trace 1]).  Every metric is printed
   by name with its unit and sample count on the lines before the final
   JSON object, which is the machine-read result. *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : int;
  tail : string;  (** "p95=… " summary of the sample, when it has one *)
}

let end_to_end =
  [ ("setup_s", "s"); ("cmd_p50_s", "s"); ("cmd_peak_rss_mb", "MB");
    ("scenarios_per_s", "1/s"); ("req_p50_ms", "ms"); ("req_p90_ms", "ms");
    ("req_within_limit_frac", "fraction"); ("heavy_req_p50_ms", "ms");
    ("ping_p90_ms", "ms"); ("daemon_peak_rss_mb", "MB") ]

let per_layer =
  [ ("cli.exec_s", "s"); ("unattributed_s", "s"); ("trace.wall_s", "s");
    ("cells.characterize_s", "s"); ("cells.states", "count");
    ("cells.char_decode_s", "s"); ("cache.get_s", "s"); ("cache.put_s", "s");
    ("cache.bytes_read_per_req", "B"); ("cache.hit_ratio", "fraction");
    ("memo.rgcorr_decode_s", "s"); ("memo.linmemo_s", "s");
    ("batch.parse_s", "s"); ("batch.run_one_ms", "ms"); ("batch.report_s", "s");
    ("rgcorr.build_s", "s"); ("est.context_s", "s"); ("est.linear_s", "s");
    ("est.int2d_s", "s"); ("est.polar_s", "s"); ("exact.estimate_s", "s");
    ("exact.pairs_per_s", "1/s"); ("mc.prepare_s", "s"); ("mc.moments_s", "s");
    ("tail.estimate_s", "s"); ("delta.create_s", "s");
    ("delta.pairs_per_s", "1/s"); ("delta.swap_p50_ms", "ms");
    ("opt.run_s", "s"); ("opt.candidates", "count"); ("circuit.place_s", "s");
    ("pool.busy_frac", "fraction"); ("serve.rtt_ms", "ms");
    ("serve.overhead_ms", "ms"); ("protocol.codec_us", "us");
    ("gen.lag_p90_ms", "ms"); ("trace.overhead_frac", "fraction") ]

let recorded : (string, metric) Hashtbl.t = Hashtbl.create 64

let unit_of name =
  match List.assoc_opt name (end_to_end @ per_layer) with
  | Some u -> u
  | None -> invalid_arg ("Metrics: unknown metric " ^ name)

let set ?(samples = 1) ?(tail = "") name value =
  Hashtbl.replace recorded name
    { name; unit_ = unit_of name; value; samples; tail }

(* A timing metric from its sample: [value] is the statistic the metric
   names; the line also shows the median and the reporting-rule tail. *)
let set_dist ?(scale = 1.0) name value xs =
  let xs = List.map (fun x -> x *. scale) xs in
  let tail =
    Printf.sprintf "p50=%.6g%s" (Common.median xs)
      (match Common.tail_percentile xs with
      | Some (q, v) -> Printf.sprintf " p%g=%.6g" (q *. 100.0) v
      | None -> "")
  in
  set ~samples:(List.length xs) ~tail name (value *. scale)

(* Failures are counted against attempts, over every operation the run
   made: spawned commands, requests, and output checks. *)
let attempted = ref 0
let failed = ref 0
let failures : string list ref = ref []

let attempt ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    if List.length !failures < 20 then failures := what :: !failures
  end;
  ok

let print ~workload ~traced ~host =
  let names = if traced then per_layer else end_to_end in
  Printf.printf "perfbench %s (%s run)\n" workload
    (if traced then "traced" else "untraced");
  List.iter (fun (k, v) -> Printf.printf "  host.%s = %s\n" k v) host;
  let fields =
    List.filter_map
      (fun (name, unit_) ->
        let m =
          match Hashtbl.find_opt recorded name with
          | Some m -> m
          | None ->
            (* An untraced run measures every end-to-end metric.  A layer
               this workload never enters did no work: 0 with no samples. *)
            if not traced then ignore (attempt false (name ^ " was not measured"));
            { name; unit_; value = 0.0; samples = 0; tail = "(not entered)" }
        in
        Printf.printf "  %-24s %14.6g %-8s n=%d %s\n" name m.value unit_ m.samples
          m.tail;
        (* A NaN or infinity is a harness fault, never a reading. *)
        if Float.is_finite m.value then
          Some (Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name m.value unit_)
        else begin
          ignore (attempt false (name ^ " is not finite"));
          None
        end)
      names
  in
  List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) (List.rev !failures);
  let fail_frac =
    if !attempted = 0 then 0.0
    else float_of_int !failed /. float_of_int !attempted
  in
  Printf.printf "  %-24s %14.6g %-8s (%d of %d operations)\n" "fail_frac"
    fail_frac "fraction" !failed !attempted;
  let correct = !failed = 0 && !attempted > 0 in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) !failed (String.concat ", " fields)
