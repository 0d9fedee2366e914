(* Strategy comparison harness: the census of [Wafer] (same positions,
   same per-cell RNG seeds, one shared detect pass per die) with every
   selected strategy applied to every die, projected onto a yield /
   power / area table. *)
module Sg = Stage
module Welford = Pvtol_util.Stream_stats.Welford
module Table = Pvtol_util.Table
module Metrics = Pvtol_util.Metrics

let m_compare_dies = Metrics.counter "compare_dies_total"

type config = {
  nx : int;
  ny : int;
  dies_per_cell : int;
  fields : int;
  seed : int;
  direction : Island.direction;
  choices : Compensation.choice list;
}

let default_config =
  {
    nx = 8;
    ny = 8;
    dies_per_cell = 12;
    fields = 1;
    seed = 7;
    direction = Island.Vertical;
    choices = Compensation.all_choices;
  }

type strategy_result = {
  name : string;
  title : string;
  knob_units : string;
  yield : float;
  mean_power_mw : float;
  mean_knob : float;
  knob_total : int;
  mean_area_um2 : float;
  static_area_um2 : float;
  max_knob : int;
}

type report = {
  config : config;
  clock_ns : float;
  dies : int;
  yield_uncompensated : float;
  power_baseline_mw : float;
  results : strategy_result list;
}

let run ?pool t ({ nx; ny; dies_per_cell; fields; seed; direction; choices }
    as cfg) =
  let c =
    Wafer.census ?pool t
      { Wafer.nx; ny; dies_per_cell; fields; seed; direction }
      choices
  in
  let total = c.Wafer.c_total in
  Metrics.add m_compare_dies total.Wafer.a_dies;
  let dies = float_of_int total.Wafer.a_dies in
  let results =
    Array.to_list
      (Array.map2
         (fun (s : Compensation.strategy) (ta : Wafer.tally) ->
           {
             name = s.Compensation.name;
             title = s.Compensation.title;
             knob_units = s.Compensation.knob_units;
             yield = float_of_int ta.Wafer.t_meets /. dies;
             mean_power_mw = Welford.mean ta.Wafer.t_power;
             mean_knob = Welford.mean ta.Wafer.t_knob;
             knob_total = ta.Wafer.t_knob_total;
             mean_area_um2 = Welford.mean ta.Wafer.t_area;
             static_area_um2 = s.Compensation.static_area_um2;
             max_knob = s.Compensation.max_knob;
           })
         c.Wafer.c_strategies total.Wafer.a_tallies)
  in
  {
    config = cfg;
    clock_ns = Compensation.clock c.Wafer.c_ctx;
    dies = total.Wafer.a_dies;
    yield_uncompensated = float_of_int total.Wafer.a_unc /. dies;
    power_baseline_mw = Compensation.power_baseline_mw c.Wafer.c_ctx;
    results;
  }

(* ------------------------------------------------------------------ *)
(* Stage-graph exposure                                                 *)

let config_label cfg =
  Printf.sprintf "%dx%d-d%d-f%d-s%d-%s-%s" cfg.nx cfg.ny cfg.dies_per_cell
    cfg.fields cfg.seed
    (Island.direction_name cfg.direction)
    (Compensation.choices_label cfg.choices)

(* Declared on the flow's own graph on first use, like Wafer's sweep
   family. *)
let family : (config, report) Sg.keyed Type.Id.t = Type.Id.make ()

let compare t cfg =
  Sg.get_keyed ~compute:(run t)
    (Sg.family (Flow.graph t) family ~name:"compare"
       ~deps:(fun cfg -> Wafer.census_deps cfg.direction)
       ~key_label:config_label)
    cfg

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

let render r =
  let cfg = r.config in
  let tbl =
    Table.create
      ~header:
        [ "strategy"; "yield"; "mean power"; "vs base"; "mean knob";
          "exercised area"; "static area" ]
  in
  Table.add_row tbl
    [ "uncompensated"; Table.pcell r.yield_uncompensated;
      Table.fcell ~decimals:2 r.power_baseline_mw ^ " mW"; "+0.0%"; "-"; "-";
      "-" ];
  Table.add_sep tbl;
  List.iter
    (fun s ->
      Table.add_row tbl
        [
          s.title;
          Table.pcell s.yield;
          Table.fcell ~decimals:2 s.mean_power_mw ^ " mW";
          Printf.sprintf "%+.1f%%"
            (100.0 *. ((s.mean_power_mw /. r.power_baseline_mw) -. 1.0));
          Printf.sprintf "%.2f %s" s.mean_knob s.knob_units;
          Table.fcell ~decimals:1 s.mean_area_um2 ^ " um2";
          Table.fcell ~decimals:1 s.static_area_um2 ^ " um2";
        ])
    r.results;
  Printf.sprintf
    "strategy comparison: %dx%d grid x %d dies/cell x %d field(s) = %d dies \
     (%s slicing, clock %.3f ns)\n%s"
    cfg.nx cfg.ny cfg.dies_per_cell cfg.fields r.dies
    (Island.direction_name cfg.direction)
    r.clock_ns
    (Table.render tbl)

let pp fmt r = Format.pp_print_string fmt (render r)

(* ------------------------------------------------------------------ *)
(* JSON export                                                          *)

let json_float = Pvtol_util.Json.float_9g

let to_json r =
  let cfg = r.config in
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"grid\": { \"nx\": %d, \"ny\": %d },\n" cfg.nx cfg.ny;
  add "  \"dies_per_cell\": %d,\n" cfg.dies_per_cell;
  add "  \"fields\": %d,\n" cfg.fields;
  add "  \"seed\": %d,\n" cfg.seed;
  add "  \"direction\": \"%s\",\n" (Island.direction_name cfg.direction);
  add "  \"clock_ns\": %s,\n" (json_float r.clock_ns);
  add "  \"dies\": %d,\n" r.dies;
  add "  \"yield_uncompensated\": %s,\n" (json_float r.yield_uncompensated);
  add "  \"power_baseline_mw\": %s,\n" (json_float r.power_baseline_mw);
  add "  \"strategies\": [\n";
  List.iteri
    (fun i s ->
      add
        "    { \"name\": \"%s\", \"title\": \"%s\", \"yield\": %s, \
         \"mean_power_mw\": %s, \"mean_knob\": %s, \"knob_total\": %d, \
         \"knob_units\": \"%s\", \"max_knob\": %d, \"mean_area_um2\": %s, \
         \"static_area_um2\": %s }%s\n"
        s.name s.title (json_float s.yield)
        (json_float s.mean_power_mw)
        (json_float s.mean_knob)
        s.knob_total s.knob_units s.max_knob
        (json_float s.mean_area_um2)
        (json_float s.static_area_um2)
        (if i < List.length r.results - 1 then "," else ""))
    r.results;
  add "  ]\n}\n";
  Buffer.contents buf
