(* Differential tests of the golden (scalar) vs batched (SoA +
   incremental) Monte-Carlo engines, through every MC-consuming path:
   [Monte_carlo.run] itself, the [Postsilicon] die kernel, and a
   [Wafer] sweep — at the named die positions A-D, one off-diagonal
   die, and 1/2/4 domains.  Tolerances per [Engine_diff]. *)

module MC = Pvtol_ssta.Monte_carlo
module Sta = Pvtol_timing.Sta
module Sampler = Pvtol_variation.Sampler
module Position = Pvtol_variation.Position
module Netlist = Pvtol_netlist.Netlist
module Postsilicon = Pvtol_core.Postsilicon
module Wafer = Pvtol_core.Wafer
module Compare = Pvtol_core.Compare
module Compensation = Pvtol_core.Compensation
module Pool = Pvtol_util.Pool
module Srng = Pvtol_util.Srng

(* Raw placement env (no flow) for the plain MC diffs. *)
let mc_env =
  lazy
    (let v = Pvtol_vex.Vex_core.build Pvtol_vex.Vex_core.small_config in
     let nl = v.Pvtol_vex.Vex_core.netlist in
     let fp = Pvtol_place.Floorplan.create ~cell_area:(Netlist.area nl) () in
     let p = Pvtol_place.Placer.place nl fp in
     let sta = Sta.of_placement p ~capture:v.Pvtol_vex.Vex_core.capture_stage in
     (p, sta, Sampler.create ()))

let flow_env = Test_extensions.env

let positions =
  Position.named @ [ Position.at_xy ~x_frac:0.3 ~y_frac:0.7 () ]

let test_mc_engines () =
  let p, sta, sampler = Lazy.force mc_env in
  List.iter
    (fun position ->
      List.iter
        (fun domains ->
          let pool = Pool.create ~domains () in
          Fun.protect
            ~finally:(fun () -> Pool.shutdown pool)
            (fun () ->
              let golden, batched =
                Engine_diff.both (fun engine ->
                    MC.run
                      ~config:{ MC.samples = 60; seed = 5 }
                      ~engine ~pool ~sampler ~sta ~placement:p ~position ())
              in
              Engine_diff.check_mc
                ~label:
                  (Printf.sprintf "%s/%d domains" position.Position.label
                     domains)
                golden batched))
        [ 1; 2; 4 ])
    positions

let test_mc_engine_env_selection () =
  (* The environment variable reaches the default engine: under
     [golden] the env-selected run is bit-identical to an explicit
     [~engine:Golden] run (and likewise for [batched]). *)
  let p, sta, sampler = Lazy.force mc_env in
  let run ?engine () =
    MC.run
      ~config:{ MC.samples = 32; seed = 5 }
      ?engine ~sampler ~sta ~placement:p ~position:Position.point_b ()
  in
  List.iter
    (fun (name, engine) ->
      let by_env = Engine_diff.with_engine_env name (fun () -> run ()) in
      let explicit = run ~engine () in
      Alcotest.(check bool)
        (name ^ ": env selects the same engine")
        true
        (by_env.MC.worst_samples = explicit.MC.worst_samples))
    [ ("golden", MC.Golden); ("batched", MC.Batched) ]

let test_postsilicon_engines () =
  (* The incremental STA is exact, so whole die records — verdicts,
     raised counts AND the worst-delay float — must be bit-identical
     between engines at every position. *)
  let t, v = Lazy.force flow_env in
  let kg = Postsilicon.kernel ~engine:MC.Golden t v in
  let kb = Postsilicon.kernel ~engine:MC.Batched t v in
  let scg = Postsilicon.scratch kg and scb = Postsilicon.scratch kb in
  List.iter
    (fun position ->
      let sys_g = Postsilicon.systematic kg position in
      let sys_b = Postsilicon.systematic kb position in
      Alcotest.(check bool)
        (position.Position.label ^ ": same systematic")
        true (sys_g = sys_b);
      let rng_g = Srng.create 11 and rng_b = Srng.create 11 in
      for die = 1 to 6 do
        let dg = Postsilicon.simulate_die kg scg ~systematic:sys_g rng_g in
        let db = Postsilicon.simulate_die kb scb ~systematic:sys_b rng_b in
        if dg <> db then
          Alcotest.failf "%s: die %d differs between engines"
            position.Position.label die
      done)
    positions

let test_wafer_engines () =
  (* A whole sweep through the env-var plumbing: every cell (yields,
     scenario histograms, power, delay summaries) bit-identical. *)
  let t, _ = Lazy.force flow_env in
  let cfg =
    { Wafer.default_config with Wafer.nx = 3; ny = 3; dies_per_cell = 4 }
  in
  let sweep name =
    Engine_diff.with_engine_env name (fun () -> Wafer.run t cfg)
  in
  let g = sweep "golden" and b = sweep "batched" in
  Alcotest.(check bool) "cells bit-identical" true (g.Wafer.cells = b.Wafer.cells);
  Alcotest.(check bool) "sweeps bit-identical" true (g = b)

let test_compare_engines () =
  (* The strategy comparison inherits the engine through the env like
     the wafer sweep; the shared-scratch strategies use the incremental
     STA (exact) and the skew/buffer strategies run full passes on
     private workspaces either way, so whole reports — every strategy's
     yield, power, knob and area columns — are bit-identical. *)
  let t, _ = Lazy.force flow_env in
  let cfg =
    {
      Compare.nx = 3;
      ny = 2;
      dies_per_cell = 4;
      fields = 1;
      seed = 7;
      direction = Pvtol_core.Island.Vertical;
      choices = Compensation.all_choices;
    }
  in
  let report name =
    Engine_diff.with_engine_env name (fun () -> Compare.run t cfg)
  in
  let g = report "golden" and b = report "batched" in
  Alcotest.(check bool) "strategy results bit-identical" true
    (g.Compare.results = b.Compare.results);
  Alcotest.(check bool) "reports bit-identical" true (g = b)

let suite =
  ( "engines",
    [
      Alcotest.test_case "mc golden vs batched (A-D, off-diagonal, 1/2/4 domains)"
        `Quick test_mc_engines;
      Alcotest.test_case "env engine selection" `Quick
        test_mc_engine_env_selection;
      Alcotest.test_case "postsilicon dies bit-identical across engines" `Quick
        test_postsilicon_engines;
      Alcotest.test_case "wafer sweep bit-identical across engines" `Quick
        test_wafer_engines;
      Alcotest.test_case "strategy comparison bit-identical across engines"
        `Quick test_compare_engines;
    ] )
