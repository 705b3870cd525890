(* serve-mixed: a spawned [rgleak serve] on a warm cache, driven over
   two persistent connections from this process.

   light: an open loop of single-scenario light-tier requests at a
   fixed rate (Gen.serve_plan), each timed from its scheduled send time;
   one in ten carries a never-seen mix.
   heavy: one connection sends exact n=20k requests back to back while
   the other pings on a fixed schedule — the pings measure how long the
   daemon's single event loop keeps them waiting.

   The run is [cycles] rounds of light then heavy, each on a fresh
   daemon over the warm cache, so the samples of each phase are spread
   over the whole run and over several processes: neither one slow
   moment of the host nor one process's memory layout decides a
   median. *)

module P = Rgleak_serve.Protocol
module Client = Rgleak_serve.Client
module Batch = Rgleak_cache.Batch
module Cache = Rgleak_cache.Cache

let limit_s = 0.4
let light_share = 0.85
let cycles = 5

(* [rgleak client] commands, [client_count] at the start of each round.
   Each sends one heavy line and [client_lines] pool scenarios in one
   request, so the daemon's work and not process start-up makes up most
   of a command's wall. *)
let client_count = 2
let client_lines = 3

type kind = Light of bool  (** fresh mix *) | Heavy | Ping

type pending = { kind : kind; line : string; sched : float; sent : float }

type reply = { req : pending; resp : P.response option; at : float }

type conn = { fd : Unix.file_descr; mutable buf : string; q : pending Queue.t }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { fd; buf = ""; q = Queue.create () }

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let send ~t0 c kind line sched =
  let op, body = match kind with Ping -> (P.Ping, "") | _ -> (P.Estimate, line ^ "\n") in
  write_all c.fd (P.encode_request { P.op; body }) 0;
  Queue.push { kind; line; sched; sent = Common.now () -. t0 } c.q

let outstanding conns = List.fold_left (fun n c -> n + Queue.length c.q) 0 conns

(* Waits up to [timeout] for replies and hands each to [on_reply]; a
   closed or garbled connection fails everything pending on it. *)
let pump ~t0 conns ~timeout on_reply =
  let ready =
    match Unix.select (List.map (fun c -> c.fd) conns) [] [] (Float.max 0.0 timeout) with
    | r, _, _ -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  let chunk = Bytes.create 65536 in
  List.iter
    (fun fd ->
      let c = List.find (fun c -> c.fd = fd) conns in
      let fail_all () =
        Queue.iter (fun req -> on_reply { req; resp = None; at = Common.now () -. t0 }) c.q;
        Queue.clear c.q
      in
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> fail_all ()
      | k ->
        c.buf <- c.buf ^ Bytes.sub_string chunk 0 k;
        let rec drain () =
          match P.decode_response c.buf with
          | P.Got (resp, used) ->
            c.buf <- String.sub c.buf used (String.length c.buf - used);
            let req = Queue.pop c.q in
            on_reply { req; resp = Some resp; at = Common.now () -. t0 };
            drain ()
          | P.Need_more -> ()
          | P.Bad _ -> fail_all ()
        in
        drain ()
      | exception Unix.Unix_error _ -> fail_all ())
    ready

(* The open-loop light phase: arrivals alternate between the two
   connections and are sent on schedule whatever is still pending. *)
let light_phase sock (arrivals : Gen.arrival list) =
  let conns = [ connect sock; connect sock ] in
  let t0 = Common.now () in
  let replies = ref [] in
  let todo = ref (List.mapi (fun i a -> (i, a)) arrivals) in
  let horizon = match List.rev arrivals with a :: _ -> a.Gen.at | [] -> 0.0 in
  while (!todo <> [] || outstanding conns > 0) && Common.now () -. t0 < horizon +. 60.0 do
    let t = Common.now () -. t0 in
    let rec send_due () =
      match !todo with
      | (i, a) :: rest when a.Gen.at <= t ->
        send ~t0 (List.nth conns (i mod 2)) (Light a.Gen.fresh) a.Gen.line a.Gen.at;
        todo := rest;
        send_due ()
      | _ -> ()
    in
    send_due ();
    let timeout =
      match !todo with (_, a) :: _ -> a.Gen.at -. (Common.now () -. t0) | [] -> 0.05
    in
    pump ~t0 conns ~timeout (fun r -> replies := r :: !replies)
  done;
  List.iter (fun c -> Queue.iter (fun req -> replies := { req; resp = None; at = nan } :: !replies) c.q; Unix.close c.fd) conns;
  List.rev !replies

(* The heavy phase: exact requests back to back on one connection,
   scheduled pings on the other. *)
let heavy_phase sock (plan : Gen.serve_plan) ~seconds =
  let a = connect sock and b = connect sock in
  let conns = [ a; b ] in
  let t0 = Common.now () in
  let heavy = Array.of_list plan.Gen.heavy in
  let next = ref 0 in
  let send_heavy () =
    send ~t0 a Heavy heavy.(!next mod Array.length heavy) (Common.now () -. t0);
    incr next
  in
  send_heavy ();
  let replies = ref [] in
  let next_ping = ref 0.0 in
  while (Common.now () -. t0 < seconds || outstanding conns > 0) && Common.now () -. t0 < seconds +. 60.0 do
    let t = Common.now () -. t0 in
    while !next_ping <= t && !next_ping < seconds do
      send ~t0 b Ping "" !next_ping;
      next_ping := !next_ping +. plan.Gen.ping_every
    done;
    let timeout =
      if !next_ping < seconds then !next_ping -. (Common.now () -. t0) else 0.05
    in
    pump ~t0 conns ~timeout (fun r ->
        replies := r :: !replies;
        if r.req.kind = Heavy && r.at < seconds then send_heavy ())
  done;
  List.iter (fun c -> Queue.iter (fun req -> replies := { req; resp = None; at = nan } :: !replies) c.q; Unix.close c.fd) conns;
  List.rev !replies

(* The light arrivals in [cycles] consecutive runs of equal count, each
   re-timed from the last arrival of the run before it. *)
let light_chunks (arrivals : Gen.arrival list) =
  let n = List.length arrivals in
  List.init cycles (fun j ->
      let lo = j * n / cycles and hi = (j + 1) * n / cycles in
      let start = if lo = 0 then 0.0 else (List.nth arrivals (lo - 1)).Gen.at in
      List.filteri (fun i _ -> i >= lo && i < hi) arrivals
      |> List.map (fun a -> { a with Gen.at = a.Gen.at -. start }))

(* Seconds in which the daemon had at least one estimate request
   outstanding: the union of [sent, answered] over a phase's replies.
   The daemon works on requests one at a time, so this is its busy time
   and does not depend on how fast the open loop offers work. *)
let busy_s replies =
  let spans =
    List.sort compare
      (List.filter_map
         (fun r -> if r.req.kind <> Ping && Float.is_finite r.at then Some (r.req.sent, r.at) else None)
         replies)
  in
  let total, open_ =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (a0, b0) when a <= b0 -> (total, Some (a0, Float.max b0 b))
        | Some (a0, b0) -> (total +. (b0 -. a0), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) spans
  in
  match open_ with Some (a, b) -> total +. (b -. a) | None -> total

let ok_reply r =
  match r.resp with
  | Some { P.status = P.Ok; code = 0; _ } -> true
  | _ -> false

let vm_hwm_kib pid =
  let text = try Common.read_file (Printf.sprintf "/proc/%d/status" pid) with Sys_error _ -> "" in
  List.fold_left
    (fun acc l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] -> (
        match String.split_on_char ' ' (String.trim v) with
        | kib :: _ -> Option.value ~default:acc (int_of_string_opt kib)
        | [] -> acc)
      | _ -> acc)
    0 (String.split_on_char '\n' text)

(* Spawns a daemon on [cache], waits until a ping is answered, then
   sends [lines] one at a time.  Returns the daemon and the replies
   (line, payload). *)
let spawn_daemon ~cache name lines =
  let sock = Common.path (name ^ ".sock") in
  let pid =
    Common.spawn ~stderr:(Common.path "serve.err")
      [ "serve"; "--socket"; sock; "--cache-dir"; cache ]
  in
  let ready =
    Metrics.attempt (Client.wait_ready ~socket:sock ~timeout_s:60.0) "daemon never answered a ping"
  in
  let replies =
    if not ready then []
    else
      List.map
        (fun line ->
          match Client.request ~socket:sock ~op:P.Estimate ~body:(line ^ "\n") () with
          | Ok { P.status = P.Ok; code = 0; payload } -> (line, payload)
          | _ ->
            ignore (Metrics.attempt false "warm-up request failed");
            (line, ""))
        lines
  in
  (pid, sock, replies)

(* Set-up: a daemon on an empty cache, warmed with one request per
   pool scenario.  Returns it, its cache and the set-up time. *)
let start_daemon (plan : Gen.serve_plan) i =
  let cache = Common.fresh_dir (Printf.sprintf "serve-cache%d" i) in
  let t0 = Common.now () in
  let pid, sock, warm = spawn_daemon ~cache (Printf.sprintf "d%d" i) plan.Gen.warm in
  (pid, sock, cache, Common.now () -. t0, warm)

let stop_daemon pid sock =
  ignore (Client.request ~socket:sock ~op:P.Shutdown ());
  let e = Common.wait pid in
  ignore (Metrics.attempt (e.Common.code = 0) (Printf.sprintf "daemon exited %d" e.Common.code))

(* The spawned command of this workload: [rgleak client] sending a
   small manifest to the idle daemon, as a user would from a shell.
   Returns the samples and the (line, record) pairs for serve≡batch. *)
let client_cmds sock manifests =
  let manifest = Common.path "client.jsonl" and out = Common.path "client.out" in
  let samples, pairs =
    List.split
      (List.map
         (fun lines ->
           Common.write_file manifest (String.concat "\n" lines ^ "\n");
           let s =
             Cli_w.run_checked ~stdout:out "rgleak client"
               [ "client"; "--socket"; sock; "--manifest"; manifest ]
           in
           let records = Batch_w.lines_of (Common.read_file out) in
           if Metrics.attempt (List.length records = List.length lines)
               "rgleak client printed one record per manifest line"
           then (s, List.map2 (fun l r -> (l, r ^ "\n")) lines records)
           else (s, []))
         manifests)
  in
  (samples, List.concat pairs)

(* serve≡batch: every reply must equal the [rgleak batch] record of its
   manifest line, computed on a copy of the warm cache the daemon
   started the timed phase with. *)
let check_against_batch ~ref_cache served =
  let lines = List.sort_uniq compare (List.map fst served) in
  let manifest = Common.path "serve-ref.jsonl" in
  Common.write_file manifest (String.concat "\n" lines ^ "\n");
  let out = Common.path "serve-ref.out" in
  ignore
    (Cli_w.run_checked "reference rgleak batch"
       [ "batch"; manifest; "--cache-dir"; ref_cache; "--out"; out ]);
  let records = Batch_w.records (Common.read_file out) in
  let record_of = Hashtbl.create 64 in
  if List.length records = List.length lines then
    List.iter2 (Hashtbl.replace record_of) lines records;
  List.iter
    (fun (line, payload) ->
      ignore
        (Metrics.attempt
           (Hashtbl.find_opt record_of line = Some (String.sub payload 0 (max 0 (String.length payload - 1))))
           ("serve reply differs from the batch record for " ^ line)))
    served

let run ~seed ~seconds ~traced =
  let light_s = seconds *. light_share in
  let plan = Gen.serve_plan ~seed ~light_s in
  let k = if traced then 1 else 2 in
  let daemons = List.init k (start_daemon plan) in
  List.iter (fun (pid, sock, _, _, _) -> stop_daemon pid sock) daemons;
  let setup = List.map (fun (_, _, _, dt, _) -> dt) daemons in
  let _, _, cache, _, warm = List.nth daemons (k - 1) in
  let copy name = let d = Common.path name in Common.copy_tree cache d; d in
  let ref_cache = copy "serve-ref-cache" in
  let replica_caches = if traced then Array.init 5 (fun i -> copy (Printf.sprintf "replica%d" i)) else [||] in
  let probe_cache = if traced then copy "probe-cache" else "" in
  let pool = Array.of_list plan.Gen.pool in
  let clients_at sock j =
    client_cmds sock
      (List.init client_count (fun c ->
           let i = (j * client_count) + c in
           List.nth plan.Gen.heavy (i mod List.length plan.Gen.heavy)
           :: List.init client_lines (fun k ->
                  pool.(((i * client_lines) + k) mod Array.length pool))))
  in
  let heavy_s = (seconds -. light_s) /. float_of_int cycles in
  let rounds =
    List.mapi
      (fun j chunk ->
        (* One untimed request first: the process's first request pays
           for its own start (pool domains, first page faults). *)
        let pid, sock, first =
          spawn_daemon ~cache (Printf.sprintf "r%d" j) [ List.hd plan.Gen.pool ]
        in
        let c = clients_at sock j in
        let l = light_phase sock chunk in
        let h = heavy_phase sock plan ~seconds:heavy_s in
        let hwm = vm_hwm_kib pid in
        stop_daemon pid sock;
        (first, c, l, h, hwm))
      (light_chunks plan.Gen.light)
  in
  let clients = List.concat_map (fun (_, (c, _), _, _, _) -> c) rounds in
  let client_out = List.concat_map (fun (f, (_, o), _, _, _) -> f @ o) rounds in
  let light = List.concat_map (fun (_, _, l, _, _) -> l) rounds in
  let heavy = List.concat_map (fun (_, _, _, h, _) -> h) rounds in
  let hwms = List.map (fun (_, _, _, _, hwm) -> Cli_w.mb hwm) rounds in
  let all = light @ heavy in
  List.iter (fun r -> ignore (Metrics.attempt (ok_reply r) "serve request failed")) all;
  let payload r = match r.resp with Some x -> x.P.payload | None -> "" in
  let served =
    warm @ client_out
    @ List.filter_map
        (fun r -> if r.req.kind <> Ping && ok_reply r then Some (r.req.line, payload r) else None)
        all
  in
  check_against_batch ~ref_cache served;
  let latencies kind_ok from_sched =
    List.filter_map
      (fun r ->
        if kind_ok r.req.kind && ok_reply r then
          Some (r.at -. if from_sched then r.req.sched else r.req.sent)
        else None)
      all
  in
  let is_light = function Light _ -> true | _ -> false in
  if not traced then begin
    let req = latencies is_light true in
    let n_light = List.length (List.filter (fun r -> is_light r.req.kind) all) in
    let heavy_ms = latencies (( = ) Heavy) false in
    let pings = latencies (( = ) Ping) true in
    Metrics.set_dist "setup_s" (Common.median setup) setup;
    let walls = List.map (fun s -> s.Cli_w.wall) clients in
    Metrics.set_dist "cmd_p50_s" (Common.median walls) walls;
    Metrics.set ~samples:(List.length clients) "cmd_peak_rss_mb"
      (Common.median (List.map (fun s -> Cli_w.mb s.Cli_w.rss_kib) clients));
    let ok_estimates = List.length (List.filter (fun r -> r.req.kind <> Ping && ok_reply r) all) in
    Metrics.set ~samples:ok_estimates "scenarios_per_s"
      (float_of_int ok_estimates
      /. Common.sum (List.concat_map (fun (_, _, l, h, _) -> [ busy_s l; busy_s h ]) rounds));
    Metrics.set_dist ~scale:1000.0 "req_p50_ms" (Common.median req) req;
    Metrics.set_dist ~scale:1000.0 "req_p90_ms" (Common.quantile req 0.9) req;
    Metrics.set ~samples:n_light "req_within_limit_frac"
      (float_of_int (List.length (List.filter (fun x -> x <= limit_s) req))
      /. float_of_int (max 1 n_light));
    Metrics.set_dist ~scale:1000.0 "heavy_req_p50_ms" (Common.median heavy_ms) heavy_ms;
    Metrics.set_dist ~scale:1000.0 "ping_p90_ms" (Common.quantile pings 0.9) pings;
    Metrics.set ~samples:(List.length hwms) "daemon_peak_rss_mb" (Common.median hwms)
  end
  else begin
    ignore (Layers.cli_exec ());
    let light_ok = List.filter (fun r -> is_light r.req.kind && ok_reply r) light in
    let rtts = List.map (fun r -> r.at -. r.req.sent) light_ok in
    Metrics.set_dist ~scale:1000.0 "serve.rtt_ms" (Common.median rtts) rtts;
    (* The replica below replays the first 40 requests five times. *)
    let light_ok = List.filteri (fun i _ -> i < 40) light_ok in
    let rtts = List.filteri (fun i _ -> i < 40) rtts in
    let lags = List.map (fun r -> r.req.sent -. r.req.sched) all in
    Metrics.set_dist ~scale:1000.0 "gen.lag_p90_ms" (Common.quantile lags 0.9) lags;
    (* Replica: what the daemon does per request — decode the frame,
       parse the one-line manifest, run it on a fresh engine over the
       shared cache, encode the reply. *)
    let pass = ref 0 in
    let inproc = ref [] in
    let off_wall, on_wall, snap =
      Layers.passes (fun () ->
          let cache = Cache.open_ ~dir:replica_caches.(!pass) () in
          incr pass;
          inproc := [];
          List.iter
            (fun r ->
              let t_req = Common.now () in
              let frame = P.encode_request { P.op = P.Estimate; body = r.req.line ^ "\n" } in
              let body =
                Layers.span "protocol.codec_s" (fun () ->
                    match P.decode_request frame with
                    | P.Got (q, _) -> q.P.body
                    | _ -> "")
              in
              let scens = Layers.span "batch.parse_s" (fun () -> Batch.parse_manifest body) in
              let outcomes =
                Layers.span "batch.run_one_s" (fun () ->
                    let engine = Batch.engine ~cache () in
                    List.map (Batch.run_one engine) scens)
              in
              let out =
                Layers.span "batch.report_s" (fun () ->
                    String.concat ""
                      (List.map
                         (fun o -> Rgleak_valid.Vjson.to_string o.Batch.o_json ^ "\n")
                         outcomes))
              in
              let reply =
                Layers.span "protocol.codec_s" (fun () ->
                    match
                      P.decode_response
                        (P.encode_response { P.status = P.Ok; code = Batch.exit_code outcomes; payload = out })
                    with
                    | P.Got (x, _) -> x.P.payload
                    | _ -> "")
              in
              inproc := (Common.now () -. t_req) :: !inproc;
              ignore (Metrics.attempt (reply = payload r) "in-process serve replica differs"))
            light_ok)
    in
    let attributed = Layers.attributed () in
    let overhead = List.map2 (fun rtt x -> rtt -. x) rtts (List.rev !inproc) in
    Metrics.set_dist ~scale:1000.0 "serve.overhead_ms" (Common.median overhead) overhead;
    let codec = Layers.get "protocol.codec_s" in
    Metrics.set ~samples:(List.length codec) "protocol.codec_us"
      (1e6 *. Common.sum codec /. float_of_int (max 1 (List.length light_ok)));
    Metrics.set ~samples:(List.length light_ok) "cache.bytes_read_per_req"
      (float_of_int (Layers.counter snap "cache.bytes_read")
      /. float_of_int (max 1 (List.length light_ok)));
    let distinct = List.sort_uniq compare (List.filter (fun (_, p) -> p <> "") served) in
    let bad =
      Probe.run ~cache_dir:probe_cache ~scratch_dir:(Common.fresh_dir "probe-scratch")
        (List.map (fun (l, p) -> (l, String.trim p)) distinct)
    in
    ignore (Metrics.attempt (bad = 0) (Printf.sprintf "%d decomposed replays differ" bad));
    Layers.finish ~user_wall:(Common.sum rtts) ~attributed ~exec_total:0.0 ~off_wall ~on_wall
      snap
  end
