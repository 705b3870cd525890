(* The JSON value type lives in rgleak_obs, as Rgleak_obs.Vjson.  This
   alias exists only because the end-to-end benchmark harness
   (perfbench/) still names Rgleak_valid.Vjson; nothing else uses it. *)
include Rgleak_obs.Vjson
