(* Unit tests for the single-die detect-and-compensate kernel
   ([Postsilicon.kernel] / [simulate_die]) and the wafer-scale sweep
   built on it ([Wafer]).  The study numbers of [Postsilicon.run] are
   pinned bit-exactly: the kernel refactor and the wafer engine must
   never change the physics of the original diagonal exhibit. *)

module Flow = Pvtol_core.Flow
module Island = Pvtol_core.Island
module Postsilicon = Pvtol_core.Postsilicon
module Wafer = Pvtol_core.Wafer
module Position = Pvtol_variation.Position
module Pool = Pvtol_util.Pool
module Srng = Pvtol_util.Srng
module Stats = Pvtol_util.Stats

let env = Test_extensions.env

let check_bits what expected got =
  if expected <> got then
    Alcotest.failf "%s: expected %h, got %h" what expected got

(* --- golden pin of the diagonal study (quick config, vertical) --- *)

(* Captured from the pre-kernel-refactor implementation; [run] must
   reproduce it bit-for-bit. *)
let golden_chips =
  (* (violating, detected, raised) per chip, in sample order *)
  [ (0, 0, 0); (1, 1, 2); (0, 0, 0); (0, 0, 0); (1, 1, 2); (0, 0, 0);
    (2, 2, 3); (1, 1, 2); (0, 0, 0); (0, 0, 0); (1, 1, 1); (1, 1, 2) ]

let test_run_golden () =
  let t, v = Lazy.force env in
  let s = Postsilicon.run ~n_chips:12 ~seed:3 t v in
  check_bits "yield uncompensated" 0x1p-1 s.Postsilicon.yield_uncompensated;
  check_bits "yield compensated" 0x1p+0 s.Postsilicon.yield_compensated;
  check_bits "yield chip-wide" 0x1p+0 s.Postsilicon.yield_chip_wide;
  check_bits "mean raised" 0x1p+0 s.Postsilicon.mean_raised;
  check_bits "mean islands power" 0x1.630982023ad44p+2
    s.Postsilicon.mean_power_islands_mw;
  check_bits "mean chip-wide power" 0x1.1de9363ad5505p+2
    s.Postsilicon.mean_power_chip_wide_mw;
  Alcotest.(check (list (triple int int int)))
    "per-chip (violating, detected, raised)" golden_chips
    (List.map
       (fun (c : Postsilicon.chip) ->
         (c.Postsilicon.violating, c.Postsilicon.detected, c.Postsilicon.raised))
       s.Postsilicon.chips);
  (* The die positions come from the same RNG stream as the Lgate
     draws: pin two of them so the draw protocol can never drift. *)
  let fracs =
    List.map (fun (c : Postsilicon.chip) -> c.Postsilicon.diagonal_frac)
      s.Postsilicon.chips
  in
  check_bits "chip 0 position" 0x1.a1770cd55c65p-1 (List.nth fracs 0);
  check_bits "chip 6 position" 0x1.0dd2ba46af79p-3 (List.nth fracs 6)

(* --- kernel invariants over a simulated population --- *)

(* Simulate a small population at several positions (both diagonal and
   off-diagonal) through the kernel directly. *)
let simulate_population () =
  let t, v = Lazy.force env in
  let k = Postsilicon.kernel t v in
  let sc = Postsilicon.scratch k in
  let positions =
    [ Position.point_a; Position.point_b; Position.point_d;
      Position.at_xy ~x_frac:0.1 ~y_frac:0.9 ();
      Position.at_xy ~x_frac:0.9 ~y_frac:0.1 () ]
  in
  ( k,
    List.concat_map
      (fun pos ->
        let systematic = Postsilicon.systematic k pos in
        let rng = Srng.create 11 in
        List.init 6 (fun _ -> Postsilicon.simulate_die k sc ~systematic rng))
      positions )

let test_detection_equals_violation () =
  (* Ideal sensors: the reported scenario is the actual number of
     failing stages (the paper's Razor subset monitors every path that
     can become critical, so it detects the same scenario). *)
  let _, dies = simulate_population () in
  List.iter
    (fun (d : Postsilicon.die) ->
      Alcotest.(check int) "detected = violating" d.Postsilicon.die_violating
        d.Postsilicon.die_detected)
    dies

let test_raised_monotonicity () =
  let k, dies = simulate_population () in
  let n = Postsilicon.n_islands k in
  List.iter
    (fun (d : Postsilicon.die) ->
      (* The closed loop starts at the detected scenario and only ever
         escalates, never past the island count. *)
      Alcotest.(check bool) "raised >= min detected n" true
        (d.Postsilicon.die_raised >= min d.Postsilicon.die_detected n);
      Alcotest.(check bool) "raised <= n_islands" true
        (d.Postsilicon.die_raised <= n);
      if d.Postsilicon.die_meets_uncompensated then begin
        Alcotest.(check int) "passing die raises nothing" 0
          d.Postsilicon.die_raised;
        Alcotest.(check bool) "passing die is compensated" true
          d.Postsilicon.die_meets_compensated
      end)
    dies;
  (* More islands raised can only add power. *)
  let rec mono r =
    r >= n
    || (Postsilicon.power_islands_mw k ~raised:r
        <= Postsilicon.power_islands_mw k ~raised:(r + 1)
       && mono (r + 1))
  in
  Alcotest.(check bool) "power monotone in raised islands" true (mono 0);
  Alcotest.(check bool) "baseline is the 0-raised power" true
    (Postsilicon.power_baseline_mw k
    <= Postsilicon.power_islands_mw k ~raised:0 +. 1e-9)

let test_chip_wide_subsumes_islands () =
  (* Chip-wide adaptation raises every cell the islands scheme raises
     (and more): any die the islands fix, 1.2V-everywhere fixes too. *)
  let _, dies = simulate_population () in
  List.iter
    (fun (d : Postsilicon.die) ->
      if d.Postsilicon.die_meets_compensated then
        Alcotest.(check bool) "compensated => chip-wide meets" true
          d.Postsilicon.die_meets_chip_wide)
    dies

let test_kernel_protocol_matches_run () =
  (* Replaying [run]'s RNG protocol (one uniform for the die position,
     then the die simulation) through the public kernel API reproduces
     the study chip-for-chip. *)
  let t, v = Lazy.force env in
  let s = Postsilicon.run ~n_chips:8 ~seed:5 t v in
  let k = Postsilicon.kernel t v in
  let sc = Postsilicon.scratch k in
  let rng = Srng.create 5 in
  List.iter
    (fun (c : Postsilicon.chip) ->
      let frac = Srng.uniform rng in
      let systematic = Postsilicon.systematic k (Position.at_fraction frac) in
      let d = Postsilicon.simulate_die k sc ~systematic rng in
      check_bits "die position" c.Postsilicon.diagonal_frac frac;
      Alcotest.(check (triple int int int))
        "die record matches study chip"
        (c.Postsilicon.violating, c.Postsilicon.detected, c.Postsilicon.raised)
        (d.Postsilicon.die_violating, d.Postsilicon.die_detected,
         d.Postsilicon.die_raised);
      Alcotest.(check (triple bool bool bool))
        "die verdicts match study chip"
        (c.Postsilicon.meets_uncompensated, c.Postsilicon.meets_compensated,
         c.Postsilicon.meets_chip_wide)
        (d.Postsilicon.die_meets_uncompensated,
         d.Postsilicon.die_meets_compensated,
         d.Postsilicon.die_meets_chip_wide))
    s.Postsilicon.chips

let test_diagonal_position_equivalence () =
  (* [at_xy f f] is the same physical die position as [at_fraction f]:
     identical RNG stream => bit-identical die. *)
  let t, v = Lazy.force env in
  let k = Postsilicon.kernel t v in
  let sc = Postsilicon.scratch k in
  List.iter
    (fun f ->
      let sys_diag = Postsilicon.systematic k (Position.at_fraction f) in
      let sys_xy =
        Postsilicon.systematic k (Position.at_xy ~x_frac:f ~y_frac:f ())
      in
      Alcotest.(check bool) "identical systematic arrays" true
        (sys_diag = sys_xy);
      let d1 = Postsilicon.simulate_die k sc ~systematic:sys_diag (Srng.create 21) in
      let d2 = Postsilicon.simulate_die k sc ~systematic:sys_xy (Srng.create 21) in
      Alcotest.(check bool) "identical dies" true (d1 = d2))
    [ 0.0; 0.3; 1.0 ]

(* --- wafer sweep --- *)

let wafer_cfg =
  { Wafer.default_config with Wafer.nx = 3; ny = 2; dies_per_cell = 5 }

let test_wafer_cell_independence () =
  (* Any cell can be recomputed from (seed, field, ix, iy) alone,
     without running the sweep: the per-cell stream never depends on
     the rest of the grid. *)
  let t, v = Lazy.force env in
  let s = Wafer.sweep t wafer_cfg in
  let k = Postsilicon.kernel t v in
  let sc = Postsilicon.scratch k in
  let ix = 2 and iy = 1 in
  let cell = s.Wafer.cells.((iy * wafer_cfg.Wafer.nx) + ix) in
  let systematic =
    Postsilicon.systematic k (Wafer.cell_position wafer_cfg ~ix ~iy)
  in
  let rng = Srng.create (Wafer.cell_seed wafer_cfg ~field:0 ~ix ~iy) in
  let raised = ref 0 and unc = ref 0 in
  for _ = 1 to wafer_cfg.Wafer.dies_per_cell do
    let d = Postsilicon.simulate_die k sc ~systematic rng in
    raised := !raised + d.Postsilicon.die_raised;
    if d.Postsilicon.die_meets_uncompensated then incr unc
  done;
  Alcotest.(check int) "cell die count" wafer_cfg.Wafer.dies_per_cell
    cell.Wafer.dies;
  check_bits "cell uncompensated yield"
    (float_of_int !unc /. float_of_int wafer_cfg.Wafer.dies_per_cell)
    cell.Wafer.yield_uncompensated;
  check_bits "cell mean raised"
    (float_of_int !raised /. float_of_int wafer_cfg.Wafer.dies_per_cell)
    cell.Wafer.mean_raised

let test_wafer_domain_invariance () =
  (* Bit-identical sweeps for every pool size (the CI runs the whole
     suite under PVTOL_DOMAINS=2 as well). *)
  let t, _ = Lazy.force env in
  let run_with domains =
    let p = Pool.create ~domains () in
    let s = Wafer.run ~pool:p t wafer_cfg in
    Pool.shutdown p;
    s
  in
  let s1 = run_with 1 in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "sweep identical with %d domains" domains)
        true
        (run_with domains = s1))
    [ 2; 4 ]

let test_wafer_aggregates_consistent () =
  let t, _ = Lazy.force env in
  let s = Wafer.sweep t wafer_cfg in
  let cells = Array.to_list s.Wafer.cells in
  Alcotest.(check int) "total dies"
    (wafer_cfg.Wafer.nx * wafer_cfg.Wafer.ny * wafer_cfg.Wafer.dies_per_cell)
    s.Wafer.dies;
  (* Wafer yields are the die-weighted means of the cell yields. *)
  let weighted f =
    List.fold_left
      (fun acc (c : Wafer.cell) -> acc +. (f c *. float_of_int c.Wafer.dies))
      0.0 cells
    /. float_of_int s.Wafer.dies
  in
  let close what a b =
    if Float.abs (a -. b) > 1e-12 then Alcotest.failf "%s: %g <> %g" what a b
  in
  close "uncompensated yield"
    (weighted (fun c -> c.Wafer.yield_uncompensated))
    s.Wafer.yield_uncompensated;
  close "compensated yield"
    (weighted (fun c -> c.Wafer.yield_compensated))
    s.Wafer.yield_compensated;
  close "mean raised" (weighted (fun c -> c.Wafer.mean_raised)) s.Wafer.mean_raised;
  (* Scenario counts add up; the delay extrema are the cell extrema. *)
  Alcotest.(check int) "scenario counts total" s.Wafer.dies
    (Array.fold_left ( + ) 0 s.Wafer.scenario_counts);
  let min_d =
    List.fold_left (fun acc (c : Wafer.cell) -> Float.min acc c.Wafer.delay.Stats.min)
      infinity cells
  in
  check_bits "delay min" min_d s.Wafer.delay.Stats.min;
  List.iter
    (fun (c : Wafer.cell) ->
      Alcotest.(check bool) "p50 <= p90" true
        (c.Wafer.delay_p50_ns <= c.Wafer.delay_p90_ns +. 1e-12);
      Alcotest.(check bool) "yield ordering" true
        (c.Wafer.yield_compensated >= c.Wafer.yield_uncompensated))
    cells

let test_wafer_memoized () =
  let t, _ = Lazy.force env in
  let s1 = Wafer.sweep t wafer_cfg in
  let s2 = Wafer.sweep t wafer_cfg in
  Alcotest.(check bool) "same sweep value (memoized stage)" true (s1 == s2)

let test_wafer_flat_memory () =
  (* Streaming statistics: the retained sweep grows with the grid, not
     with the die population. *)
  let t, _ = Lazy.force env in
  let sweep_words dies_per_cell =
    let cfg = { wafer_cfg with Wafer.dies_per_cell } in
    Obj.reachable_words (Obj.repr (Wafer.run t cfg))
  in
  Alcotest.(check int) "10x dies, same retained size" (sweep_words 4)
    (sweep_words 40)

let test_wafer_validation () =
  let t, _ = Lazy.force env in
  let expect_invalid what cfg =
    try
      ignore (Wafer.run t cfg);
      Alcotest.failf "%s: expected Invalid_argument" what
    with Invalid_argument _ -> ()
  in
  expect_invalid "empty grid" { wafer_cfg with Wafer.nx = 0 };
  expect_invalid "no dies" { wafer_cfg with Wafer.dies_per_cell = 0 }

let test_wafer_callback_errors () =
  (* A raising progress callback neither stops a sweep nor changes its
     result: each raise is counted in wafer_callback_errors_total. *)
  let module Metrics = Pvtol_util.Metrics in
  let module Log = Pvtol_util.Log in
  let t, _ = Lazy.force env in
  let errors = Metrics.counter "wafer_callback_errors_total" in
  Metrics.set_enabled true;
  Log.set_sink (fun _ _ -> ());
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Log.set_sink Log.default_sink)
    (fun () ->
      let before = Metrics.counter_value errors in
      let s = Wafer.run t wafer_cfg in
      let s' =
        Wafer.run ~on_cell:(fun ~completed:_ ~total:_ -> failwith "boom") t
          wafer_cfg
      in
      Alcotest.(check bool) "same sweep with a raising on_cell" true (s = s');
      let cells = wafer_cfg.Wafer.nx * wafer_cfg.Wafer.ny in
      Alcotest.(check int) "one error per cell" cells
        (Metrics.counter_value errors - before);
      let scfg =
        {
          Wafer.default_sampling_config with
          Wafer.s_strata = 2;
          s_dies_per_round = 4;
          s_max_rounds = 3;
          s_ci_target = 1e-12;
        }
      in
      let r = Wafer.estimate_run t scfg in
      let before = Metrics.counter_value errors in
      let r' =
        Wafer.estimate_run
          ~on_round:(fun ~round:_ ~max_rounds:_ ~ci_halfwidth:_ ->
            raise Exit)
          t scfg
      in
      Alcotest.(check string) "same estimate with a raising on_round"
        (Wafer.sampling_to_json r) (Wafer.sampling_to_json r');
      Alcotest.(check int) "one error per round" r'.Wafer.sr_rounds
        (Metrics.counter_value errors - before))

let suite =
  ( "postsilicon",
    [
      Alcotest.test_case "diagonal study golden" `Quick test_run_golden;
      Alcotest.test_case "detection = violation" `Quick
        test_detection_equals_violation;
      Alcotest.test_case "raised monotonicity" `Quick test_raised_monotonicity;
      Alcotest.test_case "chip-wide subsumes islands" `Quick
        test_chip_wide_subsumes_islands;
      Alcotest.test_case "kernel protocol = run" `Quick
        test_kernel_protocol_matches_run;
      Alcotest.test_case "diagonal position equivalence" `Quick
        test_diagonal_position_equivalence;
      Alcotest.test_case "wafer cell independence" `Quick
        test_wafer_cell_independence;
      Alcotest.test_case "wafer domain invariance" `Quick
        test_wafer_domain_invariance;
      Alcotest.test_case "wafer aggregates consistent" `Quick
        test_wafer_aggregates_consistent;
      Alcotest.test_case "wafer sweep memoized" `Quick test_wafer_memoized;
      Alcotest.test_case "wafer flat memory" `Quick test_wafer_flat_memory;
      Alcotest.test_case "wafer validation" `Quick test_wafer_validation;
      Alcotest.test_case "wafer callback errors counted" `Quick
        test_wafer_callback_errors;
    ] )
