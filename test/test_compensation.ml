(* Tests for the pluggable compensation-strategy interface
   ([Compensation]) and the strategy comparison harness ([Compare]).

   The load-bearing guarantee is differential: the refactored
   voltage-island and chip-wide strategies must reproduce the
   pre-refactor physics bit-for-bit — [Compare] on the same grid as a
   [Wafer] sweep must return identical yields and mean powers, on top
   of the golden study pins of [Test_postsilicon]. *)

module Flow = Pvtol_core.Flow
module Island = Pvtol_core.Island
module Compensation = Pvtol_core.Compensation
module Compare = Pvtol_core.Compare
module Postsilicon = Pvtol_core.Postsilicon
module Wafer = Pvtol_core.Wafer
module Position = Pvtol_variation.Position
module Pool = Pvtol_util.Pool
module Srng = Pvtol_util.Srng

let env = Test_extensions.env

let check_bits what expected got =
  if expected <> got then
    Alcotest.failf "%s: expected %h, got %h" what expected got

(* Same grid geometry as the wafer tests, so the memoized sweep is
   shared and the comparison is apples-to-apples. *)
let geometry = (3, 2, 5, 1, 7)

let compare_cfg choices =
  let nx, ny, dies_per_cell, fields, seed = geometry in
  { Compare.nx; ny; dies_per_cell; fields; seed;
    direction = Island.Vertical; choices }

let wafer_cfg =
  let nx, ny, dies_per_cell, fields, seed = geometry in
  { Wafer.nx; ny; dies_per_cell; fields; seed; direction = Island.Vertical }

let result_of r name =
  match
    List.find_opt (fun (s : Compare.strategy_result) -> s.Compare.name = name)
      r.Compare.results
  with
  | Some s -> s
  | None -> Alcotest.failf "strategy %s missing from report" name

(* --- differential: Compare reproduces the Wafer sweep bit-for-bit --- *)

let test_compare_matches_wafer () =
  let t, _ = Lazy.force env in
  let r = Compare.compare t (compare_cfg [ Compensation.Vi; Compensation.Chipwide ]) in
  let w = Wafer.sweep t wafer_cfg in
  Alcotest.(check int) "same die population" w.Wafer.dies r.Compare.dies;
  check_bits "uncompensated yield" w.Wafer.yield_uncompensated
    r.Compare.yield_uncompensated;
  let vi = result_of r "vi" and cw = result_of r "chipwide" in
  check_bits "vi yield = wafer compensated yield" w.Wafer.yield_compensated
    vi.Compare.yield;
  check_bits "chipwide yield = wafer chip-wide yield" w.Wafer.yield_chip_wide
    cw.Compare.yield;
  (* Mean powers go through the same per-cell Welford + row-major merge
     as the wafer sweep, over the same per-die values: bit-identical. *)
  check_bits "vi mean power = wafer islands power"
    w.Wafer.mean_power_islands_mw vi.Compare.mean_power_mw;
  check_bits "chipwide mean power = wafer chip-wide power"
    w.Wafer.mean_power_chip_wide_mw cw.Compare.mean_power_mw;
  check_bits "vi mean knob = wafer mean raised" w.Wafer.mean_raised
    vi.Compare.mean_knob

let test_compare_matches_wafer_domains () =
  (* Same differential at 1, 2 and 4 domains: both sweeps are ordered
     row-major reductions, so every pool size gives the same report. *)
  let t, _ = Lazy.force env in
  let with_pool domains f =
    let p = Pool.create ~domains () in
    Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)
  in
  let r1 =
    with_pool 1 (fun p ->
        Compare.run ~pool:p t
          (compare_cfg [ Compensation.Vi; Compensation.Chipwide ]))
  in
  let w = Wafer.sweep t wafer_cfg in
  check_bits "1-domain vi yield" w.Wafer.yield_compensated
    (result_of r1 "vi").Compare.yield;
  List.iter
    (fun domains ->
      let r =
        with_pool domains (fun p -> Compare.run ~pool:p t (compare_cfg Compensation.all_choices))
      in
      let r' =
        with_pool 1 (fun p -> Compare.run ~pool:p t (compare_cfg Compensation.all_choices))
      in
      Alcotest.(check bool)
        (Printf.sprintf "full report identical with %d domains" domains)
        true (r = r'))
    [ 2; 4 ]

let test_strategy_isolation () =
  (* Strategies consume no RNG and share no mutable state: a strategy's
     column is identical whether it runs alone, with every rival, or in
     any order. *)
  let t, _ = Lazy.force env in
  let full = Compare.run t (compare_cfg Compensation.all_choices) in
  let reversed =
    Compare.run t
      (compare_cfg
         [ Compensation.Buffers; Compensation.Skew; Compensation.Chipwide;
           Compensation.Vi ])
  in
  let alone c = Compare.run t (compare_cfg [ c ]) in
  List.iter
    (fun choice ->
      let name = Compensation.choice_name choice in
      let f = result_of full name in
      Alcotest.(check bool)
        (name ^ ": same result reversed")
        true
        (result_of reversed name = f);
      Alcotest.(check bool)
        (name ^ ": same result alone")
        true
        (result_of (alone choice) name = f))
    Compensation.all_choices

(* --- strategy properties on a simulated population --- *)

let population () =
  let t, v = Lazy.force env in
  let ctx = Compensation.context t in
  let sc = Compensation.scratch ctx in
  let strategies =
    List.map (fun c -> Compensation.build t ctx v c) Compensation.all_choices
  in
  let applies =
    List.map (fun (s : Compensation.strategy) ->
        (s, s.Compensation.fresh_apply ()))
      strategies
  in
  let dies = ref [] in
  List.iter
    (fun pos ->
      let systematic = Compensation.systematic ctx pos in
      let rng = Srng.create 11 in
      for _ = 1 to 6 do
        let d = Compensation.detect ctx sc ~systematic rng in
        let outcomes =
          List.map (fun (s, apply) -> (s, apply sc d)) applies
        in
        dies := (d, outcomes) :: !dies
      done)
    [ Position.point_a; Position.point_b; Position.point_d;
      Position.at_xy ~x_frac:0.1 ~y_frac:0.9 () ];
  (ctx, List.rev !dies)

let test_passing_dies_touch_nothing () =
  (* Every strategy's knob count is 0 on a passing die — in particular
     skew tuning never worsens a die that already meets timing. *)
  let ctx, dies = population () in
  let baseline = Compensation.power_baseline_mw ctx in
  let some_passed = ref false in
  List.iter
    (fun ((d : Compensation.detect), outcomes) ->
      if d.Compensation.violating = 0 then begin
        some_passed := true;
        List.iter
          (fun ((s : Compensation.strategy), (o : Compensation.outcome)) ->
            Alcotest.(check int)
              (s.Compensation.name ^ ": knob 0 on passing die")
              0 o.Compensation.knob;
            Alcotest.(check bool)
              (s.Compensation.name ^ ": passing die still meets")
              true o.Compensation.meets;
            check_bits
              (s.Compensation.name ^ ": passing die area")
              0.0 o.Compensation.area_um2;
            if s.Compensation.name <> "vi" then
              check_bits
                (s.Compensation.name ^ ": passing die power is baseline")
                baseline o.Compensation.power_mw)
          outcomes
      end)
    dies;
  Alcotest.(check bool) "population exercises passing dies" true !some_passed

let test_knob_bounds_and_meets () =
  let _, dies = population () in
  let some_failed = ref false in
  List.iter
    (fun ((d : Compensation.detect), outcomes) ->
      if d.Compensation.violating > 0 then some_failed := true;
      List.iter
        (fun ((s : Compensation.strategy), (o : Compensation.outcome)) ->
          Alcotest.(check bool)
            (s.Compensation.name ^ ": knob within bounds")
            true
            (o.Compensation.knob >= 0
            && o.Compensation.knob <= s.Compensation.max_knob);
          if d.Compensation.violating > 0 && o.Compensation.meets then
            Alcotest.(check bool)
              (s.Compensation.name ^ ": fixing a failing die uses the knob")
              true
              (o.Compensation.knob > 0))
        outcomes)
    dies;
  Alcotest.(check bool) "population exercises failing dies" true !some_failed

let test_cost_monotone_in_knob () =
  (* Skew and buffer costs are knob-linear by construction: power and
     area never decrease as more elements are exercised. *)
  let _, dies = population () in
  List.iter
    (fun name ->
      let outcomes =
        List.map
          (fun (_, os) ->
            snd
              (List.find
                 (fun ((s : Compensation.strategy), _) ->
                   s.Compensation.name = name)
                 os))
          dies
      in
      let sorted =
        List.sort
          (fun (a : Compensation.outcome) b ->
            Stdlib.compare a.Compensation.knob b.Compensation.knob)
          outcomes
      in
      ignore
        (List.fold_left
           (fun ((pk, pp, pa) as prev) (o : Compensation.outcome) ->
             if o.Compensation.knob = pk then begin
               check_bits (name ^ ": equal knob, equal power") pp
                 o.Compensation.power_mw;
               check_bits (name ^ ": equal knob, equal area") pa
                 o.Compensation.area_um2;
               prev
             end
             else begin
               Alcotest.(check bool)
                 (name ^ ": power monotone in knob")
                 true
                 (o.Compensation.power_mw >= pp);
               Alcotest.(check bool)
                 (name ^ ": area monotone in knob")
                 true
                 (o.Compensation.area_um2 >= pa);
               (o.Compensation.knob, o.Compensation.power_mw,
                o.Compensation.area_um2)
             end)
           (0, (List.hd sorted).Compensation.power_mw,
            (List.hd sorted).Compensation.area_um2)
           sorted))
    [ "skew"; "buffers" ]

let test_vi_strategy_matches_postsilicon () =
  (* The island strategy IS the Postsilicon settle loop: replay the
     same dies through both APIs and diff the records bit-for-bit. *)
  let t, v = Lazy.force env in
  let ctx = Compensation.context t in
  let sc = Compensation.scratch ctx in
  let vi = Compensation.voltage_islands t ctx v in
  let cw = Compensation.chip_wide ctx in
  let vi_apply = vi.Compensation.fresh_apply () in
  let cw_apply = cw.Compensation.fresh_apply () in
  let k = Postsilicon.kernel t v in
  let ksc = Postsilicon.scratch k in
  List.iter
    (fun pos ->
      let systematic = Compensation.systematic ctx pos in
      let rng_a = Srng.create 19 and rng_b = Srng.create 19 in
      for _ = 1 to 5 do
        let d = Compensation.detect ctx sc ~systematic rng_a in
        let ovi = vi_apply sc d in
        let ocw = cw_apply sc d in
        let die = Postsilicon.simulate_die k ksc ~systematic rng_b in
        Alcotest.(check (triple int int bool))
          "violating / raised / meets"
          (die.Postsilicon.die_violating, die.Postsilicon.die_raised,
           die.Postsilicon.die_meets_compensated)
          (d.Compensation.violating, ovi.Compensation.knob,
           ovi.Compensation.meets);
        Alcotest.(check bool)
          "chip-wide verdict" die.Postsilicon.die_meets_chip_wide
          ocw.Compensation.meets;
        check_bits "worst low delay" die.Postsilicon.die_worst_low_ns
          d.Compensation.worst_low_ns;
        check_bits "vi die power" (Postsilicon.die_power_islands_mw k die)
          ovi.Compensation.power_mw;
        check_bits "chip-wide die power"
          (Postsilicon.die_power_chip_wide_mw k die)
          ocw.Compensation.power_mw
      done)
    [ Position.point_a; Position.point_c ]

(* --- die-kernel oracle: every analysis re-scales the Lgates --- *)

module Sta = Pvtol_timing.Sta
module Paths = Pvtol_timing.Paths
module Clock_tree = Pvtol_timing.Clock_tree
module Sampler = Pvtol_variation.Sampler
module Slicing = Pvtol_core.Slicing
module Monte_carlo = Pvtol_ssta.Monte_carlo

(* The kernel prices each supply's delay vector once per die and
   assembles every analysis from those two vectors.  The oracle below is
   the formula it replaced: each analysis re-scales the die's Lgates,
   cell by cell, at that analysis's per-cell supply, through a full STA
   pass — with the four strategies' settle rules restated on top.
   Returns [(meets, knob)] per strategy, in [Compensation.all_choices]
   order, plus the detect verdict. *)
let oracle t v =
  let sta = Flow.sta t and sampler = Flow.sampler t in
  let placement = Flow.placement t in
  let base = Sta.nominal_delays sta in
  let n = Array.length base in
  let proc = sampler.Sampler.process in
  let low = proc.Pvtol_stdcell.Process.vdd_low in
  let high = proc.Pvtol_stdcell.Process.vdd_high in
  let clock = Flow.clock t in
  let ws = Sta.workspace sta in
  let analyzed = Compensation.analyzed in
  let delays_at lgates vdd =
    Array.init n (fun i ->
        base.(i) *. Sampler.delay_scale sampler ~lgate_nm:lgates.(i) ~vdd:(vdd i))
  in
  let failing s =
    match Sta.ws_stage_delay ws s with
    | Some d -> d > clock +. 1e-12
    | None -> false
  in
  let violating () = List.length (List.filter failing analyzed) in
  let domains =
    Island.domains v.Flow.slicing.Slicing.partition placement
  in
  let n_islands =
    Array.length v.Flow.slicing.Slicing.partition.Island.islands
  in
  let stage_caps =
    List.map (fun s -> (s, Sta.stage_endpoint_ids sta s)) analyzed
  in
  let all_caps = Array.concat (List.map snd stage_caps) in
  let offs =
    (Clock_tree.synthesize placement ~flops:(Sta.flop_ids sta))
      .Clock_tree.offsets
  in
  let nominal = Sta.analyze sta ~delays:base in
  let sites =
    List.concat_map
      (fun s -> List.map fst (Paths.worst_endpoints ~stage:s sta nominal ~k:8))
      analyzed
  in
  fun lgates ->
    let dl = delays_at lgates (fun _ -> low) in
    Sta.analyze_into sta ws ~delays:dl;
    let viol = violating () in
    let worst =
      List.fold_left
        (fun acc s ->
          match Sta.ws_stage_delay ws s with
          | Some d -> Float.max acc d
          | None -> acc)
        0.0 analyzed
    in
    let passing = (true, 0) in
    let vi =
      let meets_with r =
        if r = 0 then viol = 0
        else begin
          Sta.analyze_into sta ws
            ~delays:
              (delays_at lgates (fun i -> if domains.(i) <= r then high else low));
          violating () = 0
        end
      in
      let rec settle r =
        if r >= n_islands then (meets_with n_islands, n_islands)
        else if meets_with r then (true, r)
        else settle (r + 1)
      in
      settle (min viol n_islands)
    in
    let cw =
      if viol = 0 then passing
      else begin
        Sta.analyze_into sta ws ~delays:(delays_at lgates (fun _ -> high));
        (violating () = 0, 1)
      end
    in
    let skew =
      if viol = 0 then passing
      else begin
        let tune = Array.make n 0.0 in
        let max_tune = 0.10 *. clock in
        let step = max_tune /. 4.0 in
        let rec settle iters =
          Sta.analyze_into ~skew:(fun c -> offs.(c) +. tune.(c)) sta ws
            ~delays:dl;
          let bad = List.filter (fun (s, _) -> failing s) stage_caps in
          if bad = [] then true
          else if iters <= 0 then false
          else begin
            let moved = ref false in
            List.iter
              (fun (_, caps) ->
                Array.iter
                  (fun c ->
                    if tune.(c) +. step <= max_tune +. 1e-12 then begin
                      tune.(c) <- tune.(c) +. step;
                      moved := true
                    end)
                  caps)
              bad;
            !moved && settle (iters - 1)
          end
        in
        let meets = settle (4 * List.length analyzed) in
        ( meets,
          Array.fold_left
            (fun a c -> if tune.(c) > 0.0 then a + 1 else a)
            0 all_caps )
      end
    in
    let buffers =
      if viol = 0 then passing
      else begin
        let trims = Array.make n 0 and cap = Array.make n 0 in
        List.iter (fun c -> cap.(c) <- 4) sites;
        let trim = 0.02 *. clock in
        Sta.analyze_into sta ws ~delays:dl;
        let binding caps =
          Array.fold_left
            (fun (wc, wd) c ->
              let d =
                Sta.ws_endpoint_delay ws c -. (float_of_int trims.(c) *. trim)
              in
              if d > wd then (c, d) else (wc, wd))
            (-1, neg_infinity) caps
        in
        let rec settle () =
          match
            List.filter
              (fun (_, caps) -> snd (binding caps) > clock +. 1e-12)
              stage_caps
          with
          | [] -> true
          | (_, caps) :: _ ->
            let c, _ = binding caps in
            c >= 0 && trims.(c) < cap.(c)
            && begin
              trims.(c) <- trims.(c) + 1;
              settle ()
            end
        in
        let meets = settle () in
        (meets, List.fold_left (fun a c -> a + trims.(c)) 0 sites)
      end
    in
    (viol, worst, [ vi; cw; skew; buffers ])

let test_kernel_matches_oracle () =
  let t, v = Lazy.force env in
  let sampler = Flow.sampler t in
  let oracle = oracle t v in
  List.iter
    (fun engine ->
      let ctx = Compensation.context ~engine t in
      let sc = Compensation.scratch ctx in
      let applies =
        List.map
          (fun c -> (Compensation.build t ctx v c).Compensation.fresh_apply ())
          Compensation.all_choices
      in
      (* Dies alternate between A, D and A's field slowed by a few nm,
         so consecutive dies differ in which strategies fail, how many
         islands they raise and whether even 1.2V saves them — a vector
         left over from the previous die would change a verdict. *)
      let sys_a = Compensation.systematic ctx Position.point_a in
      let fields =
        [| ("A", sys_a);
           ("D", Compensation.systematic ctx Position.point_d);
           ("A+6nm", Array.map (fun l -> l +. 6.0) sys_a);
           ("A+2nm", Array.map (fun l -> l +. 2.0) sys_a);
           ("A+10nm", Array.map (fun l -> l +. 10.0) sys_a) |]
      in
      let rng = Srng.create 23 in
      let seen = Hashtbl.create 16 in
      for die = 0 to 49 do
        let name, systematic = fields.(die mod Array.length fields) in
        let label = Printf.sprintf "die %d at %s" die name in
        let lgates = Array.make (Array.length systematic) 0.0 in
        Sampler.sample_lgates sampler ~systematic (Srng.copy rng) lgates;
        let viol, worst, expect = oracle lgates in
        Hashtbl.replace seen (viol, expect) ();
        let d = Compensation.detect ctx sc ~systematic rng in
        Alcotest.(check int) (label ^ ": violating") viol
          d.Compensation.violating;
        check_bits (label ^ ": worst low") worst d.Compensation.worst_low_ns;
        (* The kept draw is the one behind the die's Lgates. *)
        let z = Compensation.gaussians sc in
        Array.iteri
          (fun i lg ->
            check_bits (label ^ ": lgate from kept draw") lg
              (systematic.(i) +. (sampler.Sampler.sigma_rnd_nm *. z.(i))))
          lgates;
        (* Every strategy twice after one detect, the second round in
           reverse order: the per-die vectors must survive repeated
           applies and serve every strategy alike. *)
        let row =
          List.map2
            (fun (c, apply) e -> (Compensation.choice_name c, apply, e))
            (List.combine Compensation.all_choices applies)
            expect
        in
        List.iteri
          (fun round order ->
            List.iter
              (fun (name, apply, (meets, knob)) ->
                let o = apply sc d in
                Alcotest.(check (pair bool int))
                  (Printf.sprintf "%s: %s round %d" label name (round + 1))
                  (meets, knob)
                  (o.Compensation.meets, o.Compensation.knob))
              order)
          [ row; List.rev row ]
      done;
      Alcotest.(check bool) "oracle sees varied die verdicts" true
        (Hashtbl.length seen >= 4))
    [ Monte_carlo.Golden; Monte_carlo.Batched ]

(* --- harness behaviour --- *)

let test_compare_memoized () =
  let t, _ = Lazy.force env in
  let cfg = compare_cfg Compensation.all_choices in
  let r1 = Compare.compare t cfg in
  let r2 = Compare.compare t cfg in
  Alcotest.(check bool) "same report value (memoized stage)" true (r1 == r2);
  (* A different strategy list is a different stage key. *)
  let r3 = Compare.compare t (compare_cfg [ Compensation.Vi ]) in
  Alcotest.(check bool) "different key, different report" true (r3 != r1)

let test_compare_validation () =
  let t, _ = Lazy.force env in
  let expect_invalid what cfg =
    try
      ignore (Compare.run t cfg);
      Alcotest.failf "%s: expected Invalid_argument" what
    with Invalid_argument _ -> ()
  in
  expect_invalid "empty grid"
    { (compare_cfg Compensation.all_choices) with Compare.nx = 0 };
  expect_invalid "no strategies" (compare_cfg []);
  expect_invalid "duplicate strategy"
    (compare_cfg [ Compensation.Vi; Compensation.Vi ])

let test_choice_names_roundtrip () =
  List.iter
    (fun c ->
      match Compensation.choice_of_name (Compensation.choice_name c) with
      | Some c' -> Alcotest.(check bool) "roundtrip" true (c = c')
      | None -> Alcotest.fail "choice name does not parse back")
    Compensation.all_choices;
  Alcotest.(check bool) "unknown name rejected" true
    (Compensation.choice_of_name "razor" = None);
  Alcotest.(check string) "label order" "vi,chipwide,skew,buffers"
    (Compensation.choices_label Compensation.all_choices)

let test_report_shapes () =
  let t, _ = Lazy.force env in
  let r = Compare.compare t (compare_cfg Compensation.all_choices) in
  Alcotest.(check int) "one result per strategy" 4 (List.length r.Compare.results);
  let vi = result_of r "vi" in
  Alcotest.(check bool) "vi never hurts yield" true
    (vi.Compare.yield >= r.Compare.yield_uncompensated);
  List.iter
    (fun (s : Compare.strategy_result) ->
      Alcotest.(check bool) (s.Compare.name ^ ": yield in [unc, 1]") true
        (s.Compare.yield >= r.Compare.yield_uncompensated -. 1e-12
        && s.Compare.yield <= 1.0 +. 1e-12);
      Alcotest.(check bool) (s.Compare.name ^ ": power above baseline") true
        (s.Compare.mean_power_mw >= r.Compare.power_baseline_mw -. 1e-9))
    r.Compare.results;
  (* Render and JSON both mention every strategy once. *)
  let rendered = Compare.render r and json = Compare.to_json r in
  let count_sub hay needle =
    let n = String.length needle and h = String.length hay in
    let c = ref 0 in
    for i = 0 to h - n do
      if String.sub hay i n = needle then incr c
    done;
    !c
  in
  List.iter
    (fun (s : Compare.strategy_result) ->
      Alcotest.(check bool) (s.Compare.name ^ " rendered") true
        (count_sub rendered s.Compare.title = 1);
      Alcotest.(check int)
        (s.Compare.name ^ " in json")
        1
        (count_sub json (Printf.sprintf "\"name\": \"%s\"" s.Compare.name)))
    r.Compare.results

(* Pinned reports: digests of the quick-design census on the 3x2 grid,
   as [pvtol wafer] and [pvtol compare] print them.  The differential
   tests above compare sweeps with each other; these catch any change
   to the report bytes themselves. *)
let test_pinned_census_reports () =
  let t, _ = Lazy.force env in
  let s = Wafer.sweep t wafer_cfg in
  let r = Compare.compare t (compare_cfg Compensation.all_choices) in
  List.iter
    (fun (what, expected, text) ->
      Alcotest.(check string) (what ^ " digest") expected
        (Digest.to_hex (Digest.string text)))
    [ ("wafer json", "2169aba9c956ada93375659f2afc1f4d", Wafer.to_json s);
      ( "wafer text",
        "312df65cb71bedacd5bcdb4c69cf3905",
        Format.asprintf "%a@.%s\n%s\n%s" Wafer.pp s
          (Wafer.render_map s Wafer.Yield_uncompensated)
          (Wafer.render_map s Wafer.Yield_compensated)
          (Wafer.render_map s Wafer.Mean_raised) );
      ("compare json", "ce29ea2d19f930324a80d55e2c73462d", Compare.to_json r);
      ("compare text", "b7203890ba99faeee10594c69ffa0b53", Compare.render r) ]

(* --- families on the flow's graph --- *)

let test_families_freed_with_flow () =
  (* The wafer, sampling and compare families live on the flow's own
     stage graph: once the flow is dropped, nothing else keeps its
     graph reachable. *)
  let graph = Weak.create 1 in
  let sweep_fresh_flow () =
    let t = Flow.prepare ~config:Flow.quick_config () in
    let cfg = { wafer_cfg with Wafer.nx = 1; ny = 1; dies_per_cell = 1 } in
    ignore (Wafer.sweep t cfg);
    ignore
      (Wafer.estimate t
         {
           Wafer.default_sampling_config with
           Wafer.s_strata = 1;
           s_dies_per_round = 2;
           s_max_rounds = 1;
         });
    ignore
      (Compare.compare t
         { (compare_cfg [ Compensation.Vi ]) with Compare.nx = 1; ny = 1 });
    Weak.set graph 0 (Some (Flow.graph t))
  in
  sweep_fresh_flow ();
  Gc.full_major ();
  Alcotest.(check bool) "graph collected with its flow" false
    (Weak.check graph 0)

let test_progress_per_call () =
  (* Two domains sweep two configs of one flow at the same time, each
     with its own callback: each callback hears only its own sweep. *)
  let t, _ = Lazy.force env in
  let configs =
    [| { wafer_cfg with Wafer.nx = 2; ny = 2; dies_per_cell = 1; seed = 101 };
       { wafer_cfg with Wafer.nx = 3; ny = 1; dies_per_cell = 2; seed = 102 } |]
  in
  let started = Atomic.make 0 in
  let sweep_with cfg =
    let cells = cfg.Wafer.nx * cfg.Wafer.ny in
    let calls = Atomic.make 0 and strangers = Atomic.make 0 in
    (* Start both sweeps together (bounded wait: a lone domain goes on). *)
    Atomic.incr started;
    let t0 = Unix.gettimeofday () in
    while Atomic.get started < 2 && Unix.gettimeofday () -. t0 < 5.0 do
      Domain.cpu_relax ()
    done;
    ignore
      (Wafer.sweep t cfg ~on_cell:(fun ~completed:_ ~total ->
           Atomic.incr calls;
           if total <> cells then Atomic.incr strangers));
    (cells, Atomic.get calls, Atomic.get strangers)
  in
  (* Pool tasks, not bare domains: the sweeps' own fan-outs then run
     serially inside them instead of sharing the shared pool. *)
  let p = Pool.create ~domains:2 () in
  let results =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown p)
      (fun () ->
        Pool.parallel_chunks p ~chunks:2
          ~init:(fun ~worker:_ -> ())
          ~f:(fun () i -> sweep_with configs.(i)))
  in
  Array.iter
    (fun (cells, calls, strangers) ->
      Alcotest.(check int) "one call per own cell" cells calls;
      Alcotest.(check int) "no other sweep's total" 0 strangers)
    results

let suite =
  ( "compensation",
    [
      Alcotest.test_case "compare = wafer sweep (vi, chipwide)" `Quick
        test_compare_matches_wafer;
      Alcotest.test_case "compare domain invariance (1/2/4)" `Quick
        test_compare_matches_wafer_domains;
      Alcotest.test_case "strategy isolation (order, subset)" `Quick
        test_strategy_isolation;
      Alcotest.test_case "passing dies: knob 0 everywhere" `Quick
        test_passing_dies_touch_nothing;
      Alcotest.test_case "knob bounds and meets" `Quick
        test_knob_bounds_and_meets;
      Alcotest.test_case "skew/buffer cost monotone in knob" `Quick
        test_cost_monotone_in_knob;
      Alcotest.test_case "vi strategy = postsilicon kernel" `Quick
        test_vi_strategy_matches_postsilicon;
      Alcotest.test_case "die kernel = per-analysis rescale oracle" `Quick
        test_kernel_matches_oracle;
      Alcotest.test_case "compare memoized per key" `Quick
        test_compare_memoized;
      Alcotest.test_case "compare validation" `Quick test_compare_validation;
      Alcotest.test_case "choice names roundtrip" `Quick
        test_choice_names_roundtrip;
      Alcotest.test_case "report shapes (render, json)" `Quick
        test_report_shapes;
      Alcotest.test_case "pinned wafer/compare reports" `Quick
        test_pinned_census_reports;
      Alcotest.test_case "families freed with their flow" `Quick
        test_families_freed_with_flow;
      Alcotest.test_case "progress callbacks per call" `Quick
        test_progress_per_call;
    ] )
