(* One repetition of one benchmark workload, in a fresh process.

   perfbench/run.py starts this program once per repetition, so the
   process-global keyed-family registries of Wafer and Compare start
   empty every time and no state carries from one repetition to the
   next.  The program prints one JSON object on stdout: set-up and run
   times, peak RSS, the digest of every report the workload built and,
   with --trace, one span per public layer call plus the per-layer
   metrics derived from them.

   Times are process CPU seconds (user + system) unless they belong to
   a span: run.py caps the domain pool at one, so CPU time is the run's
   own work, and scales it by the [probe] below.  Spans stay wall-clock,
   like the flow's own trace.

   Tracing never reaches inside lib/: every span wraps a call of a
   public accessor made from here, forced in dependency order so each
   call does only its own layer's work.  The one split taken from the
   flow's own trace is the initial placement that Flow.sizing forces. *)

module Json = Pvtol_util.Json
module Metrics = Pvtol_util.Metrics
module Trace = Pvtol_util.Trace
module Flow = Pvtol_core.Flow
module Wafer = Pvtol_core.Wafer
module Compare = Pvtol_core.Compare
module Island = Pvtol_core.Island
module Slicing = Pvtol_core.Slicing
module Position = Pvtol_variation.Position
module MC = Pvtol_ssta.Monte_carlo
module Scenario = Pvtol_ssta.Scenario
module Smart_sampling = Pvtol_ssta.Smart_sampling

type workload = Flow_wafer | Ssta_scenarios | Compare_quick | Yield_ci

let workloads =
  [ ("flow-wafer", Flow_wafer); ("ssta-scenarios", Ssta_scenarios);
    ("compare-quick", Compare_quick); ("yield-ci", Yield_ci) ]

(* Seed mapping.  Bench seed 1 reproduces the library defaults
   (place 1, MC 2024, wafer/compare/sampling 7): pins.json holds the
   report digests of that seed. *)
let mc_seed seed = 2023 + seed
let sweep_seed seed = 6 + seed

let flow_config w seed =
  match w with
  | Flow_wafer | Ssta_scenarios ->
    (* The full-size placement stays at the default seed: placement
       seeds 2 and 8 alone differ by ~20% in sizing and shifter work,
       which spreads a one-repetition run time over ten seeds further
       than any regression bound can tolerate. *)
    { Flow.default_config with mc_seed = mc_seed seed }
  | Compare_quick ->
    { Flow.quick_config with
      place_seed = seed; mc_seed = mc_seed seed }
  | Yield_ci ->
    (* The design stays at the default seeds: the brute-force reference
       the estimate is checked against is a property of the design, and
       a reference per seed would cost minutes of mc sampling. *)
    Flow.quick_config

let wafer_config seed =
  { Wafer.default_config with
    nx = 2; ny = 2; dies_per_cell = 8; seed = sweep_seed seed }

let compare_config seed = { Compare.default_config with seed = sweep_seed seed }

(* The stopping rule watches the yield interval, not the rare one: the
   rare interval's half-width scales with the estimate itself, so the
   die count it needs spread over seeds by 0.42 of its median (IQR, six
   seeds at +-0.5%) against 0.08 for the yield stop (ten seeds).  The
   rare estimate is still what run.py checks against the brute-force
   reference.  Each repetition draws [yield_estimates] independent
   estimates, one per substream of the bench seed, so the die count is
   summed over two stopping points rather than read off one. *)
let yield_estimates = 2

let sampling_config seed j =
  { Wafer.default_sampling_config with
    s_method = Smart_sampling.Is;
    s_dies_per_round = 4;
    s_max_rounds = 400;
    s_ci_target = 0.035;
    s_ci_metric = Wafer.Ci_yield;
    s_seed = MC.substream_seed (sweep_seed seed) [ j ] }

(* The brute-force reference for yield-ci's rare estimate: plain mc
   sampling of the same design and estimand, to a tight interval. *)
let reference_config =
  { Wafer.default_sampling_config with
    s_method = Smart_sampling.Mc;
    s_max_rounds = 4000;
    s_ci_target = 0.0015;
    s_ci_metric = Wafer.Ci_rare }

let min_setups = 10
let min_setup_s = 1.0

(* ------------------------------------------------------------------ *)
(* Spans, recorded from outside the library                            *)

type span = {
  name : string;
  parent : string option;
  start : float;
  stop : float;
  minor_words : float;
  counters : (string * float) list;  (** deltas, nonzero only *)
}

let tracing = ref false
let spans : span list ref = ref []
let origin = Unix.gettimeofday ()
let now () = Unix.gettimeofday () -. origin

(* Every counter, and every histogram's sum, of the Metrics registry. *)
let counters () =
  List.filter_map
    (fun (name, v) ->
      match v with
      | Metrics.Counter n -> Some (name, float_of_int n)
      | Metrics.Histogram h -> Some (name ^ "_sum", h.Metrics.sum)
      | Metrics.Gauge _ -> None)
    (Metrics.snapshot ())

let delta before after =
  List.filter_map
    (fun (name, v) ->
      let d = v -. Option.value ~default:0.0 (List.assoc_opt name before) in
      if d <> 0.0 then Some (name, d) else None)
    after

let span name f =
  if not !tracing then f ()
  else begin
    let c0 = counters () in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    let w1 = Gc.minor_words () in
    let c1 = counters () in
    spans :=
      { name; parent = None; start = t0; stop = t1; minor_words = w1 -. w0;
        counters = delta c0 c1 }
      :: !spans;
    r
  end

(* Flow.sizing forces the initial placement inside its own stage: split
   it out of the "timing.sizing" span as a child, timed by the flow's
   own trace. *)
let split_placement t =
  if !tracing then
    let tr = Flow.trace t in
    match
      ( List.find_opt (fun s -> s.name = "timing.sizing") !spans,
        Trace.find tr "sizing", Trace.find tr "placement" )
    with
    | Some p, Some sz, Some pl ->
      let start = p.start +. (pl.Trace.start_s -. sz.Trace.start_s) in
      spans :=
        { name = "place.initial"; parent = Some p.name; start;
          stop = start +. pl.Trace.dur_s; minor_words = pl.Trace.minor_words;
          counters = [] }
        :: !spans
    | _ -> failwith "no placement stage inside timing.sizing"

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type outcome = {
  reports : (string * string) list;  (** name, content *)
  dies : int;  (** dies simulated (MC samples on ssta-scenarios) *)
  estimates : Wafer.sampling_report list;  (** yield-ci only *)
}

(* Sizing (with the initial placement it forces), STA build, nominal
   timing — the shared front half, one layer per call. *)
let front t =
  ignore (span "timing.sizing" (fun () -> Flow.sizing t));
  split_placement t;
  ignore (span "timing.sta_build" (fun () -> Flow.sta t));
  ignore (span "timing.nominal" (fun () -> Flow.clock t))

(* Activity, islands, level shifters and the power stages the
   post-silicon kernel reads at die position B. *)
let back t dir =
  ignore (span "power.activity" (fun () -> Flow.activity t));
  ignore (span "core.islands" (fun () -> Flow.islands t dir));
  let v = span "core.shifters" (fun () -> Flow.variant t dir) in
  let n = Array.length v.Flow.slicing.Slicing.partition.Island.islands in
  span "power.power" (fun () ->
      List.iter
        (fun c -> ignore (Flow.power_at t ~position:Position.point_b c))
        (Flow.Baseline_low :: Flow.Chip_wide_high
        :: List.init (n + 1) (fun r -> Flow.Islands (dir, r))))

let scenarios_report mcs scs =
  let b = Buffer.create 65536 in
  List.iter (fun s -> Buffer.add_string b (Format.asprintf "%a@." Scenario.pp s)) scs;
  List.iter
    (fun ((p : Position.t), (r : MC.result)) ->
      Buffer.add_string b p.Position.label;
      Array.iter (Printf.bprintf b " %h") r.MC.worst_samples;
      List.iter
        (fun (st : MC.stage_stats) ->
          Printf.bprintf b "\n %s" (Pvtol_netlist.Stage.name st.MC.stage);
          Array.iter (Printf.bprintf b " %h") st.MC.samples)
        r.MC.stages;
      Buffer.add_char b '\n')
    mcs;
  Buffer.contents b

let run_workload w seed t =
  if !tracing then front t;
  match w with
  | Flow_wafer ->
    let cfg = wafer_config seed in
    if !tracing then back t cfg.Wafer.direction;
    let s = span "core.sweep" (fun () -> Wafer.sweep t cfg) in
    let json = span "core.report" (fun () -> Wafer.to_json s) in
    { reports = [ ("wafer", json) ]; dies = s.Wafer.dies; estimates = [] }
  | Ssta_scenarios ->
    let mcs = span "ssta.mc" (fun () -> Flow.mc_all t) in
    let scs = span "ssta.scenarios" (fun () -> Flow.scenarios t) in
    let text = span "core.report" (fun () -> scenarios_report mcs scs) in
    { reports = [ ("scenarios", text) ];
      dies = List.length mcs * (Flow.config t).Flow.mc_samples;
      estimates = [] }
  | Compare_quick ->
    let cfg = compare_config seed in
    if !tracing then back t cfg.Compare.direction;
    let r = span "core.sweep" (fun () -> Compare.compare t cfg) in
    let json = span "core.report" (fun () -> Compare.to_json r) in
    { reports = [ ("compare", json) ]; dies = r.Compare.dies; estimates = [] }
  | Yield_ci ->
    if !tracing then back t (sampling_config seed 0).Wafer.s_direction;
    let rs =
      List.init yield_estimates (fun j ->
          span "core.sweep" (fun () -> Wafer.estimate t (sampling_config seed j)))
    in
    let jsons = span "core.report" (fun () -> List.map Wafer.sampling_to_json rs) in
    { reports = List.mapi (fun j json -> (Printf.sprintf "sampling-%d" j, json)) jsons;
      dies = List.fold_left (fun a r -> a + r.Wafer.sr_dies) 0 rs;
      estimates = rs }

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from the spans                                    *)

let dur s = s.stop -. s.start

let self s =
  dur s
  -. List.fold_left
       (fun a c -> if c.parent = Some s.name then a +. dur c else a)
       0.0 !spans

let sum_by name f =
  List.fold_left (fun a s -> if s.name = name then a +. f s else a) 0.0 !spans

let counter_in name c =
  sum_by name (fun s -> Option.value ~default:0.0 (List.assoc_opt c s.counters))

let ratio a b = if b > 0.0 then a /. b else 0.0

let layer_metrics t o ~run_s ~run_counters ~cpu_s =
  let self_of name = sum_by name self in
  let mw name = sum_by name (fun s -> s.minor_words) /. 1e6 in
  let run_counter c = Option.value ~default:0.0 (List.assoc_opt c run_counters) in
  let attributed =
    List.fold_left
      (fun a s -> if s.name <> "vex.design" then a +. self s else a)
      0.0 !spans
  in
  let sweep_s = self_of "core.sweep" in
  let analyze = counter_in "core.sweep" "sta_analyze_total" in
  let mc_s = self_of "ssta.mc" in
  [ ("vex.design_s", self_of "vex.design");
    ("place.initial_s", self_of "place.initial");
    ("timing.sizing_s", self_of "timing.sizing");
    ("timing.sizing_alloc_mw", mw "timing.sizing" -. mw "place.initial");
    ("timing.sizing_rounds", float_of_int (Flow.sizing t).Pvtol_timing.Sizing.rounds);
    ("timing.sta_build_s", self_of "timing.sta_build");
    ("core.stage_memo_hits", run_counter "stage_memo_hits_total");
    ("power.activity_s", self_of "power.activity");
    ("power.activity_alloc_mw", mw "power.activity");
    ("power.power_s", self_of "power.power");
    ("core.islands_s", self_of "core.islands");
    ("core.shifters_s", self_of "core.shifters");
    ("core.shifters_alloc_mw", mw "core.shifters");
    ("ssta.mc_s", mc_s);
    ("ssta.mc_samples_per_s", ratio (counter_in "ssta.mc" "mc_samples_total") mc_s);
    ("core.sweep_s", sweep_s);
    ("core.sweep_dies_per_s", ratio (float_of_int o.dies) sweep_s);
    ("timing.sta_analyze_calls", analyze);
    ("timing.sta_full_fallback_ratio",
      ratio (counter_in "core.sweep" "sta_full_fallbacks_total") analyze);
    ("ssta.is_ess_ratio",
      ratio
        (List.fold_left (fun a r -> a +. r.Wafer.sr_effective_samples) 0.0 o.estimates)
        (float_of_int (List.fold_left (fun a r -> a + r.Wafer.sr_dies) 0 o.estimates)));
    ("util.pool_chunks", run_counter "pool_chunks_total");
    ("util.cpu_s", cpu_s);
    ("unattributed_s", run_s -. attributed) ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec go () =
        let line = input_line ic in
        match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
        | Some kb -> float_of_int kb /. 1024.0
        | None -> go ()
      in
      go ())

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let span_json s =
  Json.Obj
    [ ("name", Json.Str s.name);
      ("parent", match s.parent with Some p -> Json.Str p | None -> Json.Null);
      ("start_s", Json.Float s.start); ("end_s", Json.Float s.stop);
      ("self_s", Json.Float (self s));
      ("minor_words", Json.Float s.minor_words);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.counters)) ]

let estimate_json r =
  Json.Obj
    [ ("rare", Json.Float r.Wafer.sr_rare.Wafer.mid);
      ("rare_hw", Json.Float r.Wafer.sr_rare.Wafer.hw);
      ("dies", Json.Int r.Wafer.sr_dies);
      ("converged", Json.Bool r.Wafer.sr_converged) ]

(* The probe: a fixed round of allocation-heavy OCaml work (hash table,
   sort, list building) that calls nothing in lib/, so no change to the
   program moves it.  run.py runs it beside every repetition, pinned to
   the same CPU, one round every [interval] seconds, and scales the
   repetition's CPU times by the median round seen while they ran,
   which takes out most of the drift of a shared host's speed.  Each
   round prints a line: the wall-clock time it ended at and its CPU
   time.  The probe runs until it is terminated. *)
let probe_round () =
  let n = 30_000 in
  let st = Random.State.make [| 42 |] in
  let h = Hashtbl.create 16 in
  for i = 0 to n do
    Hashtbl.replace h (Random.State.int st (10 * n)) (float_of_int i)
  done;
  let a = Array.init n (fun _ -> Random.State.float st 1.0) in
  Array.sort compare a;
  let l = List.init n (fun i -> i * 7919 mod 100_003) in
  let evens = List.filter (fun k -> k land 1 = 0) l in
  ignore (Sys.opaque_identity (Hashtbl.length h, a.(0), List.length evens))

let probe interval =
  while true do
    Unix.sleepf interval;
    let c0 = cpu () in
    probe_round ();
    let c = cpu () -. c0 in
    Printf.printf "%.3f %.9f\n%!" (Unix.gettimeofday ()) c
  done

let main w seed =
  if !tracing then Metrics.set_enabled true;
  let config = flow_config w seed in
  (* Set-up is repeated, at least [min_setups] times and for at least
     [min_setup_s] of CPU time, and the caller reports the median CPU
     time of one set-up; only the last handle is kept, and only its
     design call is traced. *)
  let setup_start = Unix.gettimeofday () in
  let setup_times, t =
    let c_first = cpu () in
    let rec go acc =
      let c0 = cpu () in
      let t = Flow.prepare ~config () in
      let last =
        List.length acc + 1 >= min_setups && c0 -. c_first >= min_setup_s
      in
      ignore (if last then span "vex.design" (fun () -> Flow.design t) else Flow.design t);
      let acc = (cpu () -. c0) :: acc in
      if last then (List.rev acc, t) else go acc
    in
    go []
  in
  let setup_end = Unix.gettimeofday () in
  let c0 = if !tracing then counters () else [] in
  let cpu0 = cpu () in
  let t0 = Unix.gettimeofday () in
  let o = run_workload w seed t in
  let run_s = Unix.gettimeofday () -. t0 in
  let cpu_s = cpu () -. cpu0 in
  let run_counters = if !tracing then delta c0 (counters ()) else [] in
  let fields =
    [ ("setup_s", Json.List (List.map (fun x -> Json.Float x) setup_times));
      ("setup_window", Json.List [ Json.Float setup_start; Json.Float setup_end ]);
      ("run_window", Json.List [ Json.Float t0; Json.Float (t0 +. run_s) ]);
      ("run_s", Json.Float run_s);
      ("cpu_s", Json.Float cpu_s);
      ("peak_rss_mb", Json.Float (peak_rss_mb ()));
      ("dies", Json.Int o.dies);
      ("reports",
        Json.List
          (List.map
             (fun (name, content) ->
               Json.Obj
                 [ ("name", Json.Str name);
                   ("md5", Json.Str (Digest.to_hex (Digest.string content)));
                   ("bytes", Json.Int (String.length content)) ])
             o.reports));
      ("estimates", Json.List (List.map estimate_json o.estimates)) ]
  in
  let traced =
    if not !tracing then []
    else
      [ ("spans", Json.List (List.map span_json (List.rev !spans)));
        ("layers",
          Json.Obj
            (List.map
               (fun (k, v) -> (k, Json.Float v))
               (layer_metrics t o ~run_s ~run_counters ~cpu_s))) ]
  in
  print_string (Json.to_string (Json.Obj (fields @ traced)))

let () =
  let workload = ref "" and seed = ref 1 and reference = ref false
  and interval = ref 0.0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
        "NAME " ^ String.concat "|" (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--trace", Arg.Set tracing, " record per-layer spans and metrics");
      ("--reference", Arg.Set reference,
        " print the brute-force reference for yield-ci's rare estimate");
      ("--probe", Arg.Set_float interval,
        "S run a probe round every S seconds until terminated") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pvbench.exe --workload NAME [--seed N] [--trace]";
  if !interval > 0.0 then probe !interval
  else if !reference then
    let t = Flow.prepare ~config:(flow_config Yield_ci 1) () in
    print_string (Json.to_string (estimate_json (Wafer.estimate t reference_config)))
  else
  match List.assoc_opt !workload workloads with
  | Some w -> main w !seed
  | None ->
    prerr_endline ("pvbench: unknown workload " ^ !workload);
    exit 2
