(* Wafer-scale yield engine: one census driver runs the per-die
   detect-and-compensate step of [Compensation] over a 2D grid of die
   positions (optionally replicated over several exposure fields),
   batched on the shared domain pool and reduced with streaming
   statistics so its memory is O(grid), not O(dies).  The wafer sweep
   and [Compare] project that census; the estimator shares its step. *)
module Sg = Stage
module Pool = Pvtol_util.Pool
module Srng = Pvtol_util.Srng
module Stats = Pvtol_util.Stats
module Stream_stats = Pvtol_util.Stream_stats
module Welford = Stream_stats.Welford
module P2 = Stream_stats.P2
module Counter = Stream_stats.Counter
module Position = Pvtol_variation.Position
module Sampler = Pvtol_variation.Sampler
module Metrics = Pvtol_util.Metrics
module Monte_carlo = Pvtol_ssta.Monte_carlo
module Smart_sampling = Pvtol_ssta.Smart_sampling
module Log = Pvtol_util.Log

let m_cells = Metrics.counter "wafer_cells_total"
let m_wafer_dies = Metrics.counter "wafer_dies_total"
let m_sampling_dies = Metrics.counter "wafer_sampling_dies_total"
let m_callback_errors = Metrics.counter "wafer_callback_errors_total"
(* Also bumped by [Postsilicon.simulate_die]. *)
let m_island_dies = Metrics.counter "postsilicon_dies_total"
let m_islands_raised = Metrics.counter "postsilicon_islands_raised_total"
let callback_warned = Log.once ()

(* A raising progress callback must not poison the sweep, whose result
   does not depend on it: count the error, warn once per process, go
   on. *)
let notify name f =
  try f ()
  with e ->
    Metrics.incr m_callback_errors;
    Log.warn_once callback_warned
      "wafer: %s progress callback raised %s; ignored (see \
       wafer_callback_errors_total)"
      name (Printexc.to_string e)

type config = {
  nx : int;
  ny : int;
  dies_per_cell : int;
  fields : int;
  seed : int;
  direction : Island.direction;
}

let default_config =
  { nx = 8; ny = 8; dies_per_cell = 12; fields = 1; seed = 7;
    direction = Island.Vertical }

type cell = {
  ix : int;
  iy : int;
  x_frac : float;
  y_frac : float;
  dies : int;
  yield_uncompensated : float;
  yield_compensated : float;
  yield_chip_wide : float;
  mean_raised : float;
  scenario_counts : int array;
  raised_counts : int array;
  mean_power_islands_mw : float;
  mean_power_chip_wide_mw : float;
  delay : Stats.summary;
  delay_p50_ns : float;
  delay_p90_ns : float;
}

type sweep = {
  config : config;
  n_islands : int;
  clock_ns : float;
  cells : cell array;
  dies : int;
  yield_uncompensated : float;
  yield_compensated : float;
  yield_chip_wide : float;
  mean_raised : float;
  scenario_counts : int array;
  mean_power_islands_mw : float;
  mean_power_chip_wide_mw : float;
  delay : Stats.summary;
}

(* ------------------------------------------------------------------ *)
(* Grid geometry and per-cell seeding                                   *)

let grid_frac n i =
  if n <= 1 then 0.5 else float_of_int i /. float_of_int (n - 1)

let cell_position cfg ~ix ~iy =
  Position.at_xy ~x_frac:(grid_frac cfg.nx ix) ~y_frac:(grid_frac cfg.ny iy) ()

(* Every cell's RNG stream depends only on (seed, field, ix, iy), never
   on traversal order or domain count. *)
let cell_seed cfg ~field ~ix ~iy =
  Monte_carlo.substream_seed cfg.seed [ field; iy; ix ]

(* ------------------------------------------------------------------ *)
(* The die step                                                         *)

(* Everything die-independent for a set of strategies on one slicing
   variant.  Immutable; shared by every worker. *)
type plan = {
  ctx : Compensation.ctx;
  strategies : Compensation.strategy array;
  n_islands : int;
}

let plan t direction choices =
  let v = Flow.variant t direction in
  let ctx = Compensation.context t in
  {
    ctx;
    strategies = Array.of_list (List.map (Compensation.build t ctx v) choices);
    n_islands = Array.length v.Flow.slicing.Slicing.partition.Island.islands;
  }

(* One worker's mutable die state: the shared detect scratch plus one
   private apply state per strategy, reused across every die the worker
   simulates. *)
type worker = {
  sc : Compensation.scratch;
  applies :
    (Compensation.scratch -> Compensation.detect -> Compensation.outcome) array;
  outcomes : Compensation.outcome array;
}

let worker p =
  let sc = Compensation.scratch p.ctx in
  let applies =
    Array.map (fun s -> s.Compensation.fresh_apply ()) p.strategies
  in
  let none =
    { Compensation.meets = false; knob = 0; power_mw = 0.0; area_um2 = 0.0 }
  in
  { sc; applies; outcomes = Array.make (Array.length applies) none }

(* One die: the detect pass (the die's only RNG consumption), then every
   strategy in plan order on the same Lgate realisation, each outcome
   stored at its strategy's index. *)
let die p w ~systematic rng =
  let d = Compensation.detect p.ctx w.sc ~systematic rng in
  for i = 0 to Array.length w.applies - 1 do
    w.outcomes.(i) <- w.applies.(i) w.sc d
  done;
  d

(* ------------------------------------------------------------------ *)
(* The census: every die of the grid, one accumulator per cell          *)

type tally = {
  mutable t_meets : int;
  mutable t_knob_total : int;
  t_knob : Welford.t;
  t_knobs : Counter.t;
  t_power : Welford.t;
  t_area : Welford.t;
}

type acc = {
  mutable a_dies : int;
  mutable a_unc : int;
  a_delay : Welford.t;
  a_p50 : P2.t;
  a_p90 : P2.t;
  a_scen : Counter.t;
  a_tallies : tally array;
}

type census = {
  c_ctx : Compensation.ctx;
  c_strategies : Compensation.strategy array;
  c_n_islands : int;
  c_cells : acc array;
  c_total : acc;
}

let acc_create p =
  {
    a_dies = 0;
    a_unc = 0;
    a_delay = Welford.create ();
    a_p50 = P2.create 0.5;
    a_p90 = P2.create 0.9;
    a_scen = Counter.create (p.n_islands + 1);
    a_tallies =
      Array.map
        (fun (s : Compensation.strategy) ->
          {
            t_meets = 0;
            t_knob_total = 0;
            t_knob = Welford.create ();
            t_knobs = Counter.create (s.Compensation.max_knob + 1);
            t_power = Welford.create ();
            t_area = Welford.create ();
          })
        p.strategies;
  }

let acc_add acc (d : Compensation.detect) outcomes =
  let low = d.Compensation.worst_low_ns in
  acc.a_dies <- acc.a_dies + 1;
  if d.Compensation.violating = 0 then acc.a_unc <- acc.a_unc + 1;
  Welford.add acc.a_delay low;
  P2.add acc.a_p50 low;
  P2.add acc.a_p90 low;
  Counter.add acc.a_scen d.Compensation.violating;
  for i = 0 to Array.length acc.a_tallies - 1 do
    let t = acc.a_tallies.(i) and (o : Compensation.outcome) = outcomes.(i) in
    if o.Compensation.meets then t.t_meets <- t.t_meets + 1;
    t.t_knob_total <- t.t_knob_total + o.Compensation.knob;
    Welford.add t.t_knob (float_of_int o.Compensation.knob);
    Counter.add t.t_knobs o.Compensation.knob;
    Welford.add t.t_power o.Compensation.power_mw;
    Welford.add t.t_area o.Compensation.area_um2
  done

(* Everything but the quantile markers, which do not merge. *)
let acc_merge ~into acc =
  into.a_dies <- into.a_dies + acc.a_dies;
  into.a_unc <- into.a_unc + acc.a_unc;
  Welford.merge ~into:into.a_delay acc.a_delay;
  Counter.merge ~into:into.a_scen acc.a_scen;
  Array.iteri
    (fun i t ->
      let into = into.a_tallies.(i) in
      into.t_meets <- into.t_meets + t.t_meets;
      into.t_knob_total <- into.t_knob_total + t.t_knob_total;
      Welford.merge ~into:into.t_knob t.t_knob;
      Counter.merge ~into:into.t_knobs t.t_knobs;
      Welford.merge ~into:into.t_power t.t_power;
      Welford.merge ~into:into.t_area t.t_area)
    acc.a_tallies

type on_cell = completed:int -> total:int -> unit

let census ?pool ?on_cell (t : Flow.t) cfg choices =
  if cfg.nx <= 0 || cfg.ny <= 0 || cfg.dies_per_cell <= 0 || cfg.fields <= 0
  then invalid_arg "Wafer.census: grid, dies and fields must be positive";
  if choices = [] then invalid_arg "Wafer.census: no strategies selected";
  if List.length (List.sort_uniq compare choices) < List.length choices then
    invalid_arg "Wafer.census: duplicate strategy selected";
  let p = plan t cfg.direction choices in
  let pool = match pool with Some p -> p | None -> Pool.shared () in
  let total_cells = cfg.nx * cfg.ny in
  let completed = Atomic.make 0 in
  (* One chunk per grid cell; a worker reuses its die state across every
     cell it picks up.  All of a cell's dies (over every field replica)
     run serially inside its chunk in a fixed field-major order, so the
     per-cell accumulators — including the order-sensitive P^2 markers
     — are independent of scheduling. *)
  let cells =
    Pool.parallel_chunks pool ~chunks:total_cells
      ~init:(fun ~worker:_ -> worker p)
      ~f:(fun w c ->
        let ix = c mod cfg.nx and iy = c / cfg.nx in
        let systematic =
          Compensation.systematic p.ctx (cell_position cfg ~ix ~iy)
        in
        let acc = acc_create p in
        for field = 0 to cfg.fields - 1 do
          let rng = Srng.create (cell_seed cfg ~field ~ix ~iy) in
          for _ = 1 to cfg.dies_per_cell do
            acc_add acc (die p w ~systematic rng) w.outcomes
          done
        done;
        (* Progress callbacks fire from whichever domain finished the
           cell; the count is an Atomic so it is monotone across them. *)
        (match on_cell with
        | None -> ()
        | Some f ->
          let done_ = 1 + Atomic.fetch_and_add completed 1 in
          notify "on_cell" (fun () -> f ~completed:done_ ~total:total_cells));
        acc)
  in
  (* Ordered reduction (row-major), so totals are bit-identical no
     matter how the chunks were scheduled. *)
  let total = acc_create p in
  Array.iter (fun acc -> acc_merge ~into:total acc) cells;
  {
    c_ctx = p.ctx;
    c_strategies = p.strategies;
    c_n_islands = p.n_islands;
    c_cells = cells;
    c_total = total;
  }

(* ------------------------------------------------------------------ *)
(* The wafer sweep: the census of the paper's two schemes               *)

let run ?pool ?on_cell t cfg =
  let c = census ?pool ?on_cell t cfg [ Compensation.Vi; Compensation.Chipwide ] in
  let total = c.c_total in
  let vi = total.a_tallies.(0) and cw = total.a_tallies.(1) in
  Metrics.add m_cells (Array.length c.c_cells);
  Metrics.add m_wafer_dies total.a_dies;
  Metrics.add m_island_dies total.a_dies;
  Metrics.add m_islands_raised vi.t_knob_total;
  let yield_of acc n = float_of_int n /. float_of_int acc.a_dies in
  let cells =
    Array.mapi
      (fun i acc ->
        let ix = i mod cfg.nx and iy = i / cfg.nx in
        let vi = acc.a_tallies.(0) and cw = acc.a_tallies.(1) in
        {
          ix;
          iy;
          x_frac = grid_frac cfg.nx ix;
          y_frac = grid_frac cfg.ny iy;
          dies = acc.a_dies;
          yield_uncompensated = yield_of acc acc.a_unc;
          yield_compensated = yield_of acc vi.t_meets;
          yield_chip_wide = yield_of acc cw.t_meets;
          mean_raised = Welford.mean vi.t_knob;
          scenario_counts = Counter.to_array acc.a_scen;
          raised_counts = Counter.to_array vi.t_knobs;
          mean_power_islands_mw = Welford.mean vi.t_power;
          mean_power_chip_wide_mw = Welford.mean cw.t_power;
          delay = Welford.summary acc.a_delay;
          delay_p50_ns = P2.estimate acc.a_p50;
          delay_p90_ns = P2.estimate acc.a_p90;
        })
      c.c_cells
  in
  {
    config = cfg;
    n_islands = c.c_n_islands;
    clock_ns = Compensation.clock c.c_ctx;
    cells;
    dies = total.a_dies;
    yield_uncompensated = yield_of total total.a_unc;
    yield_compensated = yield_of total vi.t_meets;
    yield_chip_wide = yield_of total cw.t_meets;
    mean_raised = Welford.mean vi.t_knob;
    scenario_counts = Counter.to_array total.a_scen;
    mean_power_islands_mw = Welford.mean vi.t_power;
    mean_power_chip_wide_mw = Welford.mean cw.t_power;
    delay = Welford.summary total.a_delay;
  }

(* ------------------------------------------------------------------ *)
(* Stage-graph exposure                                                 *)

let census_deps direction =
  [ "sta"; "placed"; "sampler"; "clock";
    "shifters[" ^ Island.direction_name direction ^ "]" ]

let config_label cfg =
  Printf.sprintf "%dx%d-d%d-f%d-s%d-%s" cfg.nx cfg.ny cfg.dies_per_cell
    cfg.fields cfg.seed
    (Island.direction_name cfg.direction)

(* The sweep family lives on the flow's own graph (it cannot be declared
   in Flow itself: Wafer sits above Flow in the module order).  The
   progress callback travels with the force that computes: a memoized
   re-force never computes, so progress only streams the first time a
   (flow, config) sweep actually runs — the only time there is progress
   to report. *)
let sweep_family : (config, sweep) Sg.keyed Type.Id.t = Type.Id.make ()

let sweep ?on_cell t cfg =
  Sg.get_keyed ~compute:(run ?on_cell t)
    (Sg.family (Flow.graph t) sweep_family ~name:"wafer"
       ~deps:(fun cfg -> census_deps cfg.direction)
       ~key_label:config_label)
    cfg

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

type metric =
  | Yield_uncompensated
  | Yield_compensated
  | Yield_chip_wide
  | Mean_raised
  | Delay_p90

let metric_name = function
  | Yield_uncompensated -> "uncompensated yield"
  | Yield_compensated -> "compensated yield"
  | Yield_chip_wide -> "chip-wide yield"
  | Mean_raised -> "mean islands raised"
  | Delay_p90 -> "P90 critical delay (ns)"

let metric_value m (c : cell) =
  match m with
  | Yield_uncompensated -> c.yield_uncompensated
  | Yield_compensated -> c.yield_compensated
  | Yield_chip_wide -> c.yield_chip_wide
  | Mean_raised -> c.mean_raised
  | Delay_p90 -> c.delay_p90_ns

let ramp = " .:-=+*#%@"

let render_map s m =
  let cfg = s.config in
  let values = Array.map (metric_value m) s.cells in
  let lo = Array.fold_left Float.min infinity values in
  let hi = Array.fold_left Float.max neg_infinity values in
  let char_of v =
    let t = if hi > lo then (v -. lo) /. (hi -. lo) else 0.0 in
    let i = int_of_float (t *. float_of_int (String.length ramp - 1)) in
    ramp.[Stdlib.max 0 (Stdlib.min (String.length ramp - 1) i)]
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%s over the %dx%d die grid (%.3g..%.3g, ' '=low '@'=high):\n"
       (metric_name m) cfg.nx cfg.ny lo hi);
  for iy = cfg.ny - 1 downto 0 do
    Buffer.add_string buf (Printf.sprintf "  y=%4.2f |" (grid_frac cfg.ny iy));
    for ix = 0 to cfg.nx - 1 do
      Buffer.add_char buf ' ';
      Buffer.add_char buf (char_of values.((iy * cfg.nx) + ix))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf "          ";
  for ix = 0 to cfg.nx - 1 do
    Buffer.add_string buf (if ix mod 2 = 0 then " +" else "  ")
  done;
  Buffer.add_string buf "  (x: 0 -> 1, lower-left = slow corner A)\n";
  Buffer.contents buf

let pp fmt s =
  let cfg = s.config in
  Format.fprintf fmt
    "wafer sweep: %dx%d grid x %d dies/cell x %d field(s) = %d dies (%s \
     slicing, clock %.3f ns)@.\
    \  timing yield:  uncompensated %.1f%%   islands %.1f%%   chip-wide %.1f%%@.\
    \  mean islands raised per die: %.2f of %d@.\
    \  mean power: islands %.2f mW vs chip-wide adaptation %.2f mW (%.1f%% \
     saved)@.\
    \  critical delay: mean %.3f ns  sigma %.3f ns  range [%.3f, %.3f] ns@."
    cfg.nx cfg.ny cfg.dies_per_cell cfg.fields s.dies
    (Island.direction_name cfg.direction)
    s.clock_ns
    (100.0 *. s.yield_uncompensated)
    (100.0 *. s.yield_compensated)
    (100.0 *. s.yield_chip_wide)
    s.mean_raised s.n_islands s.mean_power_islands_mw s.mean_power_chip_wide_mw
    (100.0 *. (1.0 -. (s.mean_power_islands_mw /. s.mean_power_chip_wide_mw)))
    s.delay.Stats.mean s.delay.Stats.stddev s.delay.Stats.min s.delay.Stats.max;
  Format.fprintf fmt "  dies per detected scenario:";
  Array.iteri
    (fun i n -> Format.fprintf fmt "  %d VI: %d" i n)
    s.scenario_counts;
  Format.fprintf fmt "@."

(* ------------------------------------------------------------------ *)
(* JSON export                                                          *)

let json_float = Pvtol_util.Json.float_9g

let json_int_array a =
  "[" ^ String.concat ", " (Array.to_list (Array.map string_of_int a)) ^ "]"

let to_json s =
  let cfg = s.config in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"grid\": { \"nx\": %d, \"ny\": %d },\n" cfg.nx cfg.ny;
  add "  \"dies_per_cell\": %d,\n" cfg.dies_per_cell;
  add "  \"fields\": %d,\n" cfg.fields;
  add "  \"seed\": %d,\n" cfg.seed;
  add "  \"direction\": \"%s\",\n" (Island.direction_name cfg.direction);
  add "  \"n_islands\": %d,\n" s.n_islands;
  add "  \"clock_ns\": %s,\n" (json_float s.clock_ns);
  add "  \"wafer\": {\n";
  add "    \"dies\": %d,\n" s.dies;
  add "    \"yield_uncompensated\": %s,\n" (json_float s.yield_uncompensated);
  add "    \"yield_compensated\": %s,\n" (json_float s.yield_compensated);
  add "    \"yield_chip_wide\": %s,\n" (json_float s.yield_chip_wide);
  add "    \"mean_raised\": %s,\n" (json_float s.mean_raised);
  add "    \"scenario_counts\": %s,\n" (json_int_array s.scenario_counts);
  add "    \"mean_power_islands_mw\": %s,\n" (json_float s.mean_power_islands_mw);
  add "    \"mean_power_chip_wide_mw\": %s,\n"
    (json_float s.mean_power_chip_wide_mw);
  add "    \"delay_ns\": { \"mean\": %s, \"stddev\": %s, \"min\": %s, \"max\": %s }\n"
    (json_float s.delay.Stats.mean)
    (json_float s.delay.Stats.stddev)
    (json_float s.delay.Stats.min)
    (json_float s.delay.Stats.max);
  add "  },\n";
  add "  \"cells\": [\n";
  Array.iteri
    (fun i (c : cell) ->
      add
        "    { \"ix\": %d, \"iy\": %d, \"x_frac\": %s, \"y_frac\": %s, \
         \"dies\": %d, \"yield_uncompensated\": %s, \"yield_compensated\": \
         %s, \"yield_chip_wide\": %s, \"mean_raised\": %s, \
         \"scenario_counts\": %s, \"raised_counts\": %s, \
         \"mean_power_islands_mw\": %s, \"mean_power_chip_wide_mw\": %s, \
         \"delay_mean_ns\": %s, \"delay_stddev_ns\": %s, \"delay_p50_ns\": \
         %s, \"delay_p90_ns\": %s }%s\n"
        c.ix c.iy (json_float c.x_frac) (json_float c.y_frac) c.dies
        (json_float c.yield_uncompensated)
        (json_float c.yield_compensated)
        (json_float c.yield_chip_wide)
        (json_float c.mean_raised)
        (json_int_array c.scenario_counts)
        (json_int_array c.raised_counts)
        (json_float c.mean_power_islands_mw)
        (json_float c.mean_power_chip_wide_mw)
        (json_float c.delay.Stats.mean)
        (json_float c.delay.Stats.stddev)
        (json_float c.delay_p50_ns)
        (json_float c.delay_p90_ns)
        (if i < Array.length s.cells - 1 then "," else ""))
    s.cells;
  add "  ]\n}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Variance-reduced sampling estimator                                  *)

(* The sweep above is a census: a fixed die budget at fixed grid
   positions.  The estimator below answers the converse question — how
   many dies buy a given confidence — by sampling die positions over
   the exposure field (the estimand is the continuous wafer mean, not a
   grid average), reweighting tail-chasing tilted draws, and stopping
   when the designated metric's CI is tight enough. *)

type ci_metric = Ci_yield | Ci_rare

let ci_metric_name = function Ci_yield -> "yield" | Ci_rare -> "rare"

let ci_metric_of_string = function
  | "yield" -> Some Ci_yield
  | "rare" -> Some Ci_rare
  | _ -> None

type sampling_config = {
  s_method : Smart_sampling.method_;
  s_strata : int;
  s_dies_per_round : int;
  s_max_rounds : int;
  s_ci_target : float;
  s_ci_metric : ci_metric;
  s_rare : int;
  s_confidence : float;
  s_seed : int;
  s_direction : Island.direction;
}

let default_sampling_config =
  {
    s_method = Smart_sampling.Mc;
    s_strata = 4;
    s_dies_per_round = 16;
    s_max_rounds = 64;
    s_ci_target = 0.001;
    s_ci_metric = Ci_yield;
    s_rare = 2;
    s_confidence = 0.95;
    s_seed = 7;
    s_direction = Island.Vertical;
  }

type interval = { mid : float; hw : float }

type sampling_group = {
  sg_ix : int;
  sg_iy : int;
  sg_dies : int;
  sg_components : int;
  sg_yield_uncompensated : float;
  sg_rare : float;
  sg_mean_weight : float;
  sg_effective_samples : float;
}

type sampling_report = {
  sr_config : sampling_config;
  sr_position : Position.t option;
  sr_clock_ns : float;
  sr_rounds : int;
  sr_converged : bool;
  sr_dies : int;
  sr_estimate : float;
  sr_ci_halfwidth : float;
  sr_effective_samples : float;
  sr_yield_uncompensated : interval;
  sr_yield_compensated : interval;
  sr_yield_chip_wide : interval;
  sr_rare : interval;
  sr_groups : sampling_group array;
}

(* Per-die metric vector: [0] uncompensated yield, [1] compensated
   yield, [2] chip-wide yield, [3] the rare scenario (>= s_rare islands
   violating before compensation).  Each is accumulated as the plain
   Welford stream of w * y — an importance-sampling estimate and its
   variance need nothing beyond the transformed values. *)
let n_sampling_metrics = 4

let designated_metric = function Ci_yield -> 0 | Ci_rare -> 3

let indicator b = if b then 1.0 else 0.0

(* [outcomes] are the [Vi; Chipwide] applies of the die step. *)
let die_values ~rare (d : Compensation.detect) outcomes out =
  out.(0) <- indicator (d.Compensation.violating = 0);
  out.(1) <- indicator outcomes.(0).Compensation.meets;
  out.(2) <- indicator outcomes.(1).Compensation.meets;
  out.(3) <- indicator (d.Compensation.violating >= rare)

type gacc = {
  ga_metrics : Welford.t array;
  ga_weight : Welford.t;
  mutable ga_dies : int;
}

let gacc_create () =
  {
    ga_metrics = Array.init n_sampling_metrics (fun _ -> Welford.create ());
    ga_weight = Welford.create ();
    ga_dies = 0;
  }

type site_mode = Wafer_field | Fixed_site of Position.t

let run_sampling ?pool ?on_round (t : Flow.t) ~mode scfg =
  if scfg.s_strata <= 0 || scfg.s_dies_per_round <= 0 || scfg.s_max_rounds <= 0
  then
    invalid_arg "Wafer.estimate: strata, dies and rounds must be positive";
  if not (scfg.s_ci_target > 0.0) then
    invalid_arg "Wafer.estimate: ci target must be positive";
  if scfg.s_rare <= 0 then invalid_arg "Wafer.estimate: rare must be positive";
  let p =
    plan t scfg.s_direction [ Compensation.Vi; Compensation.Chipwide ]
  in
  let sampler = Flow.sampler t in
  let placement = Flow.placement t in
  let sta = Flow.sta t in
  let nl = Flow.netlist t in
  let n = Pvtol_netlist.Netlist.cell_count nl in
  let clock = Compensation.clock p.ctx in
  let low =
    nl.Pvtol_netlist.Netlist.lib.Pvtol_stdcell.Cell.process
      .Pvtol_stdcell.Process.vdd_low
  in
  let base = Pvtol_timing.Sta.nominal_delays sta in
  let pool = match pool with Some p -> p | None -> Pool.shared () in
  (* Fixed-site runs keep the stratum grid as independent parallel
     substreams of the same position — the stratified estimate over
     identically-distributed groups is the plain pooled estimate, and
     the oracle's long brute-force runs get the pool's full width. *)
  let s = scfg.s_strata in
  let groups = s * s in
  let q = scfg.s_dies_per_round in
  let sf = float_of_int s and qf = float_of_int q in
  let group_pos g =
    match mode with
    | Fixed_site p -> p
    | Wafer_field ->
      let gx = g mod s and gy = g / s in
      Position.at_xy
        ~x_frac:((float_of_int gx +. 0.5) /. sf)
        ~y_frac:((float_of_int gy +. 0.5) /. sf)
        ()
  in
  (* IS builds one mixture per stratum at its center position; the
     tilt is a z-space object, so the within-stratum position jitter
     does not disturb its exactness.  mc / lhs sample untilted. *)
  let model_at pos =
    let systematic = Compensation.systematic p.ctx pos in
    Smart_sampling.make
      (Smart_sampling.tilts ~sampler ~sta ~base ~systematic ~vdd:low ~clock
         ~stages:Compensation.analyzed ~rare:scfg.s_rare ())
  in
  let models =
    match (scfg.s_method, mode) with
    | Smart_sampling.Is, Fixed_site p ->
      (* One position, one mixture — shared by every substream. *)
      Array.make groups (model_at p)
    | Smart_sampling.Is, Wafer_field ->
      Pool.parallel_chunks pool ~chunks:groups
        ~init:(fun ~worker:_ -> ())
        ~f:(fun () g -> model_at (group_pos g))
    | (Smart_sampling.Mc | Smart_sampling.Lhs), _ ->
      Array.make groups Smart_sampling.plain
  in
  let gaccs = Array.init groups (fun _ -> gacc_create ()) in
  let pi_g = 1.0 /. float_of_int groups in
  let combine m =
    let mid, hw =
      Smart_sampling.combine ~confidence:scfg.s_confidence
        (Array.map (fun ga -> (pi_g, ga.ga_metrics.(m))) gaccs)
    in
    { mid; hw }
  in
  let rounds = ref 0 and converged = ref false in
  while (not !converged) && !rounds < scfg.s_max_rounds do
    let round = !rounds in
    (* One pool chunk per stratum; each stratum's round is a fresh RNG
       substream keyed by (seed, round, gy, gx), its dies run serially
       inside the chunk, and the per-round accumulators are merged into
       the persistent ones in stratum order — bit-identical for every
       domain count and schedule, like the census sweep above. *)
    let round_accs =
      Pool.parallel_chunks pool ~chunks:groups
        ~init:(fun ~worker:_ ->
          (worker p, Array.make n 0.0, Array.make n_sampling_metrics 0.0))
        ~f:(fun (ws, sysbuf, vbuf) g ->
          let gx = g mod s and gy = g / s in
          let model = models.(g) in
          let rng =
            Srng.create
              (Monte_carlo.substream_seed scfg.s_seed [ round; gy; gx ])
          in
          let acc = gacc_create () in
          let raised = ref 0 in
          (* Per-die stream layout is fixed per method: lhs prefixes
             the round with its two axis permutations, is prefixes each
             die with its component pick, and every die consumes two
             jitter uniforms and exactly [n] gaussians. *)
          let px, py =
            match scfg.s_method with
            | Smart_sampling.Lhs -> Smart_sampling.lhs_permutations rng q
            | Smart_sampling.Mc | Smart_sampling.Is -> ([||], [||])
          in
          for r = 0 to q - 1 do
            let comp =
              match scfg.s_method with
              | Smart_sampling.Is -> Smart_sampling.pick model rng
              | Smart_sampling.Mc | Smart_sampling.Lhs -> -1
            in
            let ux = Srng.uniform rng in
            let uy = Srng.uniform rng in
            let pos =
              match mode with
              | Fixed_site p -> p
              | Wafer_field ->
                let fx, fy =
                  match scfg.s_method with
                  (* mc: i.i.d. uniform over the field — the strata are
                     only independent substreams of one plain sample *)
                  | Smart_sampling.Mc -> (ux, uy)
                  | Smart_sampling.Is ->
                    ( (float_of_int gx +. ux) /. sf,
                      (float_of_int gy +. uy) /. sf )
                  | Smart_sampling.Lhs ->
                    ( (float_of_int gx
                      +. ((float_of_int px.(r) +. ux) /. qf))
                      /. sf,
                      (float_of_int gy
                      +. ((float_of_int py.(r) +. uy) /. qf))
                      /. sf )
                in
                Position.at_xy ~x_frac:fx ~y_frac:fy ()
            in
            (* The tilt is realised as a shifted systematic field
               through the unchanged die step; the detect scratch keeps
               the raw gaussians it drew, and the balance-heuristic
               weight is a function of (component, draw) alone, so it is
               priced on them once the die is done. *)
            Sampler.systematic_into sampler placement pos ~out:sysbuf;
            (match Smart_sampling.shift model ~comp with
             | Either.Right () -> ()
             | Either.Left tilt ->
               Sampler.shifted_systematic sampler ~systematic:sysbuf
                 ~cells:tilt.Smart_sampling.cells ~dir:tilt.Smart_sampling.dir
                 ~theta:tilt.Smart_sampling.theta ~out:sysbuf);
            let d = die p ws ~systematic:sysbuf rng in
            let w =
              Smart_sampling.weight model ~comp
                ~z:(Compensation.gaussians ws.sc)
            in
            die_values ~rare:scfg.s_rare d ws.outcomes vbuf;
            raised := !raised + ws.outcomes.(0).Compensation.knob;
            for m = 0 to n_sampling_metrics - 1 do
              Welford.add acc.ga_metrics.(m) (w *. vbuf.(m))
            done;
            Welford.add acc.ga_weight w;
            acc.ga_dies <- acc.ga_dies + 1
          done;
          Metrics.add m_sampling_dies acc.ga_dies;
          Metrics.add m_island_dies acc.ga_dies;
          Metrics.add m_islands_raised !raised;
          acc)
    in
    Array.iteri
      (fun g racc ->
        let ga = gaccs.(g) in
        for m = 0 to n_sampling_metrics - 1 do
          Welford.merge ~into:ga.ga_metrics.(m) racc.ga_metrics.(m)
        done;
        Welford.merge ~into:ga.ga_weight racc.ga_weight;
        ga.ga_dies <- ga.ga_dies + racc.ga_dies)
      round_accs;
    incr rounds;
    let hw = (combine (designated_metric scfg.s_ci_metric)).hw in
    (* A zero half-width means every die agreed — for indicator metrics
       that is evidence of sample starvation (a binomial with zero
       observed successes is not certain), not of convergence, so the
       rule demands a strictly positive variance estimate. *)
    if hw > 0.0 && hw <= scfg.s_ci_target then converged := true;
    match on_round with
    | None -> ()
    | Some f ->
      notify "on_round" (fun () ->
          f ~round:!rounds ~max_rounds:scfg.s_max_rounds ~ci_halfwidth:hw)
  done;
  let designated = combine (designated_metric scfg.s_ci_metric) in
  {
    sr_config = scfg;
    sr_position = (match mode with Fixed_site p -> Some p | Wafer_field -> None);
    sr_clock_ns = clock;
    sr_rounds = !rounds;
    sr_converged = !converged;
    sr_dies = Array.fold_left (fun a ga -> a + ga.ga_dies) 0 gaccs;
    sr_estimate = designated.mid;
    sr_ci_halfwidth = designated.hw;
    sr_effective_samples =
      Array.fold_left
        (fun a ga -> a +. Smart_sampling.effective_samples ga.ga_weight)
        0.0 gaccs;
    sr_yield_uncompensated = combine 0;
    sr_yield_compensated = combine 1;
    sr_yield_chip_wide = combine 2;
    sr_rare = combine 3;
    sr_groups =
      Array.mapi
        (fun g ga ->
          {
            sg_ix = g mod s;
            sg_iy = g / s;
            sg_dies = ga.ga_dies;
            sg_components = Smart_sampling.n_components models.(g);
            sg_yield_uncompensated = Welford.mean ga.ga_metrics.(0);
            sg_rare = Welford.mean ga.ga_metrics.(3);
            sg_mean_weight = Welford.mean ga.ga_weight;
            sg_effective_samples =
              Smart_sampling.effective_samples ga.ga_weight;
          })
        gaccs;
  }

(* ------------------------------------------------------------------ *)
(* Sampling stage-graph exposure                                        *)

let sampling_config_label c =
  Printf.sprintf "%s-%dx%d-d%d-r%d-ci%g-%s-m%d-c%g-s%d-%s"
    (Smart_sampling.method_name c.s_method)
    c.s_strata c.s_strata c.s_dies_per_round c.s_max_rounds c.s_ci_target
    (ci_metric_name c.s_ci_metric)
    c.s_rare c.s_confidence c.s_seed
    (Island.direction_name c.s_direction)

type on_round = round:int -> max_rounds:int -> ci_halfwidth:float -> unit

let estimate_run ?pool ?on_round t cfg =
  run_sampling ?pool ?on_round t ~mode:Wafer_field cfg

let sampling_family : (sampling_config, sampling_report) Sg.keyed Type.Id.t =
  Type.Id.make ()

let estimate ?on_round t cfg =
  Sg.get_keyed ~compute:(estimate_run ?on_round t)
    (Sg.family (Flow.graph t) sampling_family ~name:"sampling"
       ~deps:(fun cfg -> census_deps cfg.s_direction)
       ~key_label:sampling_config_label)
    cfg

let estimate_at ?pool ?on_round t ~position cfg =
  run_sampling ?pool ?on_round t ~mode:(Fixed_site position) cfg

(* ------------------------------------------------------------------ *)
(* Sampling report rendering                                            *)

let pp_interval fmt { mid; hw } =
  if Float.is_finite hw then
    Format.fprintf fmt "%.4f%% +- %.4f%%" (100.0 *. mid) (100.0 *. hw)
  else Format.fprintf fmt "%.4f%% +- inf" (100.0 *. mid)

let pp_sampling fmt r =
  let c = r.sr_config in
  Format.fprintf fmt
    "%s estimator: %dx%d strata x %d dies/round, %d round(s) of max %d \
     (%s)@.\
    \  target: %s CI half-width <= %.4f%% at %.0f%% confidence@.\
    \  dies: %d  effective samples: %.1f@.\
    \  yield:  uncompensated %a   islands %a   chip-wide %a@.\
    \  P(>=%d islands violating): %a@."
    (Smart_sampling.method_name c.s_method)
    (match r.sr_position with Some _ -> 1 | None -> c.s_strata)
    (match r.sr_position with Some _ -> 1 | None -> c.s_strata)
    c.s_dies_per_round r.sr_rounds c.s_max_rounds
    (if r.sr_converged then "converged" else "round budget exhausted")
    (ci_metric_name c.s_ci_metric)
    (100.0 *. c.s_ci_target)
    (100.0 *. c.s_confidence)
    r.sr_dies r.sr_effective_samples pp_interval r.sr_yield_uncompensated
    pp_interval r.sr_yield_compensated pp_interval r.sr_yield_chip_wide
    c.s_rare pp_interval r.sr_rare

let sampling_to_json r =
  let c = r.sr_config in
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let interval_json { mid; hw } =
    Printf.sprintf "{ \"mean\": %s, \"ci_halfwidth\": %s }" (json_float mid)
      (json_float hw)
  in
  add "{\n";
  add "  \"sampler\": \"%s\",\n" (Smart_sampling.method_name c.s_method);
  add "  \"strata\": %d,\n" c.s_strata;
  add "  \"dies_per_round\": %d,\n" c.s_dies_per_round;
  add "  \"max_rounds\": %d,\n" c.s_max_rounds;
  add "  \"ci_target\": %s,\n" (json_float c.s_ci_target);
  add "  \"ci_metric\": \"%s\",\n" (ci_metric_name c.s_ci_metric);
  add "  \"rare_scenario\": %d,\n" c.s_rare;
  add "  \"confidence\": %s,\n" (json_float c.s_confidence);
  add "  \"seed\": %d,\n" c.s_seed;
  add "  \"direction\": \"%s\",\n" (Island.direction_name c.s_direction);
  (match r.sr_position with
  | None -> ()
  | Some p ->
    add "  \"position\": { \"x_frac\": %s, \"y_frac\": %s },\n"
      (json_float (Position.x_frac p))
      (json_float (Position.y_frac p)));
  add "  \"clock_ns\": %s,\n" (json_float r.sr_clock_ns);
  add "  \"rounds\": %d,\n" r.sr_rounds;
  add "  \"converged\": %b,\n" r.sr_converged;
  add "  \"dies\": %d,\n" r.sr_dies;
  add "  \"estimate\": %s,\n" (json_float r.sr_estimate);
  add "  \"ci_halfwidth\": %s,\n" (json_float r.sr_ci_halfwidth);
  add "  \"effective_samples\": %s,\n" (json_float r.sr_effective_samples);
  add "  \"yield_uncompensated\": %s,\n" (interval_json r.sr_yield_uncompensated);
  add "  \"yield_compensated\": %s,\n" (interval_json r.sr_yield_compensated);
  add "  \"yield_chip_wide\": %s,\n" (interval_json r.sr_yield_chip_wide);
  add "  \"rare\": %s,\n" (interval_json r.sr_rare);
  add "  \"groups\": [\n";
  Array.iteri
    (fun i g ->
      add
        "    { \"ix\": %d, \"iy\": %d, \"dies\": %d, \"components\": %d, \
         \"yield_uncompensated\": %s, \"rare\": %s, \"mean_weight\": %s, \
         \"effective_samples\": %s }%s\n"
        g.sg_ix g.sg_iy g.sg_dies g.sg_components
        (json_float g.sg_yield_uncompensated)
        (json_float g.sg_rare)
        (json_float g.sg_mean_weight)
        (json_float g.sg_effective_samples)
        (if i < Array.length r.sr_groups - 1 then "," else ""))
    r.sr_groups;
  add "  ]\n}\n";
  Buffer.contents buf
